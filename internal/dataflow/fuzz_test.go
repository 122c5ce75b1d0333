package dataflow

import (
	"testing"

	"dtaint/internal/cfg"
	"dtaint/internal/corpus"
	"dtaint/internal/image"
	"dtaint/internal/symexec"
)

// FuzzAnalyzeBinary drives arbitrary FWELF bytes through the whole
// per-binary analysis: image.Parse, cfg.Build, then both analysis phases
// under small budgets, so the decoded registers, offsets and targets of
// any parseable binary reach symbolic execution. It must never panic.
// The seeds are screening binaries, small enough to keep the fuzzer fast.
func FuzzAnalyzeBinary(f *testing.F) {
	cases, err := corpus.ScreeningCorpus(8, 1)
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range cases {
		raw, err := c.Binary.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	opts := Options{
		Symexec: symexec.Options{
			LoopOnce:          true,
			MaxStatesPerBlock: 2,
			MaxStatesPerFunc:  64,
		},
		Parallelism: 1,
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		bin, err := image.Parse(data)
		if err != nil {
			return
		}
		prog, err := cfg.Build(bin)
		if err != nil {
			return
		}
		_, _ = Analyze(prog, opts) // an error is an answer; a panic is a bug
	})
}
