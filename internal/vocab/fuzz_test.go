package vocab_test

import (
	"os"
	"testing"

	"dtaint/internal/taint"
	"dtaint/internal/vocab"
)

// FuzzParse feeds arbitrary bytes to Parse, which dtaintd runs on every
// uploaded vocabulary: no input may panic, and a spec that parses must
// also compile, since validation is the only gate in front of the
// compiler.
func FuzzParse(f *testing.F) {
	def, err := os.ReadFile("default.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(def)
	f.Add([]byte(`{"version": 1, "functions": [{"name": "recv", "kind": "source", "args": [{"type": "int"}, {"type": "ptr", "role": "dest"}]}]}`))
	f.Add([]byte(`{"version": 1, "functions": [{"name": "f", "kind": "sink"`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := vocab.Parse(data, "fuzz")
		if err != nil {
			return
		}
		if _, err := taint.CompileVocabulary(spec); err != nil {
			t.Fatalf("spec parses but does not compile: %v", err)
		}
		spec.Fingerprint()
	})
}
