// Package vocab defines the declarative source/sink/sanitizer
// vocabulary: a JSON spec describing every function the taint layer
// models — its name, per-argument roles (src/dest/len/format/exec/
// path/base/byte), sink class, return-taint behavior, and sanitizer
// shape. The engine-facing compilation of a Spec lives in
// internal/taint; this package owns the schema, the embedded default
// (the paper's Table I plus the format-string / path-traversal /
// NVRAM extensions), line-precise validation, and the fingerprint
// that cache keys fold in so a changed vocabulary invalidates every
// cached summary and report.
package vocab

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Argument roles. A role names what the modeled function does with an
// argument; the taint compiler turns roles into propagation models.
const (
	RoleSrc    = "src"    // pointer whose pointed-to content is read
	RoleDest   = "dest"   // pointer whose pointed-to content is written
	RoleLen    = "len"    // explicit copy/read bound
	RoleFormat = "format" // printf/scanf-style format string
	RoleExec   = "exec"   // command string handed to a shell
	RolePath   = "path"   // filesystem path handed to the OS
	RoleBase   = "base"   // numeric base of a strtol-style parse
	RoleByte   = "byte"   // probe byte of a strchr-style scan
)

// Function kinds.
const (
	KindSource = "source" // introduces attacker-controlled data
	KindSink   = "sink"   // security-sensitive consumer of data
	KindModel  = "model"  // propagation-only library model
)

// Sink classes (mirrored by taint.Class / the public dtaint classes).
const (
	ClassBufferOverflow   = "buffer-overflow"
	ClassCommandInjection = "command-injection"
	ClassFormatString     = "format-string"
	ClassPathTraversal    = "path-traversal"
)

// Propagation models for KindModel entries.
const (
	ModelLenOf    = "len-of"    // returns the length of the src content (strlen)
	ModelParseInt = "parse-int" // returns an integer parsed from the src content (atoi/strtol)
	ModelByteScan = "byte-scan" // scans the src content for the byte arg (strchr)
	ModelAlloc    = "alloc"     // returns a fresh heap pointer (malloc)
	ModelNop      = "nop"       // no taint effect (memset, strcmp, free)
)

// Argument value types, mapped to the symbolic engine's type lattice
// for library type inference. Empty means "no type information".
const (
	TypeCharPtr = "char*"
	TypePtr     = "ptr"
	TypeInt     = "int"
	TypeVoid    = "void" // return position only
)

// Arg describes one positional argument of a modeled function.
type Arg struct {
	// Type is the argument's value type ("char*", "ptr", "int", or
	// empty for no type information).
	Type string `json:"type,omitempty"`
	// Role is the argument's taint role (see the Role constants), or
	// empty for an argument the model ignores.
	Role string `json:"role,omitempty"`
}

// Func is one vocabulary entry.
type Func struct {
	// Name is the import/PLT symbol the entry models.
	Name string `json:"name"`
	// Kind is "source", "sink", or "model".
	Kind string `json:"kind"`
	// Class is the finding class of a sink (required for sinks, must
	// be absent otherwise).
	Class string `json:"class,omitempty"`
	// Args are the declared positional arguments with inline roles.
	Args []Arg `json:"args,omitempty"`
	// Roles is the alternate spelling: role name -> argument index.
	// Indices must point into Args and must not contradict an inline
	// role on the same argument.
	Roles map[string]int `json:"roles,omitempty"`
	// Variadic declares trailing varargs past the declared arguments:
	// "src" (printf-style data the function reads) or "dest"
	// (scanf-style pointers the function writes).
	Variadic string `json:"variadic,omitempty"`
	// Ret is the return value type ("void"/empty for none).
	Ret string `json:"ret,omitempty"`
	// RetTaint marks a source returning a pointer to attacker data
	// (getenv-style) rather than filling a dest argument.
	RetTaint bool `json:"retTaint,omitempty"`
	// Nul marks a sink/source that writes NUL-terminated string data:
	// the copy occupies strlen(content)+1 bytes, so sanitization takes
	// the strict `<` capacity comparison (a bound equal to the capacity
	// is the off-by-one class). For a source with a len role it also
	// means at most len-1 content bytes are written (fgets).
	Nul bool `json:"nul,omitempty"`
	// Append marks a sink that appends to dest instead of replacing it
	// (strcat family).
	Append bool `json:"append,omitempty"`
	// Unbounded marks a sink no bound can ever apply to (gets).
	Unbounded bool `json:"unbounded,omitempty"`
	// LenTaint marks a sink where a tainted length alone is a finding
	// even when the copied data is clean (memcpy — the Heartbleed
	// shape).
	LenTaint bool `json:"lenTaint,omitempty"`
	// Unsigned marks a parse-int model with an unsigned result
	// (strtoul).
	Unsigned bool `json:"unsigned,omitempty"`
	// Model selects the propagation model of a KindModel entry.
	Model string `json:"model,omitempty"`
	// GuardByte is the single separator/probe byte whose checked
	// presence sanitizes this sink's class (";" for command injection,
	// "." for path traversal).
	GuardByte string `json:"guardByte,omitempty"`
	// Aux marks a modeled sink outside the Table I census: it is
	// detected and reported, but excluded from the Sources/Sinks
	// vocabulary listings and the static sink-site count.
	Aux bool `json:"aux,omitempty"`
}

// RoleIndex resolves a role to its argument index: inline Args roles
// first, then the Roles map; -1 when the role is absent.
func (f *Func) RoleIndex(role string) int {
	for i, a := range f.Args {
		if a.Role == role {
			return i
		}
	}
	if i, ok := f.Roles[role]; ok {
		return i
	}
	return -1
}

// Spec is a complete vocabulary.
type Spec struct {
	Version   int    `json:"version"`
	Functions []Func `json:"functions"`
}

// Error is one line/field-precise validation failure.
type Error struct {
	File  string // source file ("" for in-memory specs)
	Line  int    // 1-based line of the offending entry (0 unknown)
	Func  string // offending function entry ("" for spec-level errors)
	Field string // offending field ("" when the whole entry is wrong)
	Msg   string
}

// Error implements the error interface.
func (e *Error) Error() string {
	var b strings.Builder
	if e.File != "" {
		fmt.Fprintf(&b, "%s:", e.File)
	} else {
		b.WriteString("vocab:")
	}
	if e.Line > 0 {
		fmt.Fprintf(&b, "%d:", e.Line)
	}
	b.WriteString(" ")
	if e.Func != "" {
		fmt.Fprintf(&b, "function %q: ", e.Func)
	}
	if e.Field != "" {
		fmt.Fprintf(&b, "field %s: ", e.Field)
	}
	b.WriteString(e.Msg)
	return b.String()
}

//go:embed default.json
var defaultJSON []byte

// Default returns the embedded default vocabulary: the paper's Table I
// sources and sinks, the supporting libc models, and the format-string
// / path-traversal / NVRAM extensions. The returned Spec is shared;
// callers must not mutate it.
func Default() *Spec {
	return defaultSpec
}

var defaultSpec = func() *Spec {
	s, err := Parse(defaultJSON, "default.json")
	if err != nil {
		panic(fmt.Sprintf("vocab: embedded default invalid: %v", err))
	}
	return s
}()

// Load reads and validates a vocabulary file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("vocab: %w", err)
	}
	return Parse(data, path)
}

// Parse decodes and validates a vocabulary spec. Malformed specs are
// rejected with line/field-precise errors — an unknown role, a
// duplicate function entry, or a role index past the argument list is
// an error, never a silently ignored entry. name labels error messages
// (usually the file path).
func Parse(data []byte, name string) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, decodeError(data, name, err)
	}
	// A second top-level value is malformed input, not trailing data to
	// ignore.
	if dec.More() {
		return nil, &Error{File: name, Line: lineAt(data, dec.InputOffset()), Msg: "unexpected data after the vocabulary object"}
	}
	if errs := validate(&s, name, functionLines(data)); len(errs) > 0 {
		return nil, joinErrors(errs)
	}
	return &s, nil
}

// decodeError maps a json decoding failure to a line-precise Error.
func decodeError(data []byte, name string, err error) error {
	var off int64 = -1
	switch e := err.(type) {
	case *json.SyntaxError:
		off = e.Offset
	case *json.UnmarshalTypeError:
		off = e.Offset
	}
	line := 0
	if off >= 0 {
		line = lineAt(data, off)
	}
	return &Error{File: name, Line: line, Msg: err.Error()}
}

// lineAt converts a byte offset into a 1-based line number.
func lineAt(data []byte, off int64) int {
	if off > int64(len(data)) {
		off = int64(len(data))
	}
	return 1 + bytes.Count(data[:off], []byte{'\n'})
}

// functionLines walks the raw JSON tokens and records the line on
// which each element of the top-level "functions" array starts, so
// validation errors can point at the offending entry.
func functionLines(data []byte) []int {
	dec := json.NewDecoder(bytes.NewReader(data))
	var st []tokFrame
	lastKey := ""
	var lines []int
	for {
		tok, err := dec.Token()
		if err != nil {
			return lines
		}
		// InputOffset after the token points just past it — for an
		// opening '{' that is still the delimiter's own line (the offset
		// before the token would end on the previous line's separator).
		off := dec.InputOffset()
		if d, ok := tok.(json.Delim); ok {
			switch d {
			case '{':
				if n := len(st); n > 0 && st[n-1].isFuncs {
					lines = append(lines, lineAt(data, off))
				}
				markValueDone(st)
				st = append(st, tokFrame{isObj: true, keyNext: true})
			case '[':
				isFuncs := len(st) == 1 && st[0].isObj && lastKey == "functions"
				markValueDone(st)
				st = append(st, tokFrame{isFuncs: isFuncs})
			case '}', ']':
				if len(st) > 0 {
					st = st[:len(st)-1]
				}
			}
			continue
		}
		if n := len(st); n > 0 && st[n-1].isObj {
			if st[n-1].keyNext {
				if k, ok := tok.(string); ok {
					lastKey = k
				}
				st[n-1].keyNext = false
			} else {
				st[n-1].keyNext = true
			}
		}
	}
}

// tokFrame is one open container during the functionLines token walk.
type tokFrame struct {
	isObj   bool
	keyNext bool
	isFuncs bool
}

// markValueDone flips the enclosing object's key/value alternation when
// a container value begins.
func markValueDone(st []tokFrame) {
	if n := len(st); n > 0 && st[n-1].isObj {
		st[n-1].keyNext = true
	}
}

var validRoles = map[string]bool{
	RoleSrc: true, RoleDest: true, RoleLen: true, RoleFormat: true,
	RoleExec: true, RolePath: true, RoleBase: true, RoleByte: true,
}

var validTypes = map[string]bool{
	"": true, TypeCharPtr: true, TypePtr: true, TypeInt: true,
}

var validClasses = map[string]bool{
	ClassBufferOverflow: true, ClassCommandInjection: true,
	ClassFormatString: true, ClassPathTraversal: true,
}

var validModels = map[string]bool{
	ModelLenOf: true, ModelParseInt: true, ModelByteScan: true,
	ModelAlloc: true, ModelNop: true,
}

// validate applies the semantic rules. lines carries the source line of
// each functions[i] entry (may be shorter than Functions when the
// token walk could not attribute them).
func validate(s *Spec, name string, lines []int) []error {
	var errs []error
	lineOf := func(i int) int {
		if i < len(lines) {
			return lines[i]
		}
		return 0
	}
	if s.Version != 1 {
		errs = append(errs, &Error{File: name, Field: "version",
			Msg: fmt.Sprintf("unsupported vocabulary version %d (want 1)", s.Version)})
	}
	if len(s.Functions) == 0 {
		errs = append(errs, &Error{File: name, Msg: "vocabulary declares no functions"})
	}
	seen := make(map[string]int, len(s.Functions))
	for i := range s.Functions {
		f := &s.Functions[i]
		ln := lineOf(i)
		fail := func(field, msg string) {
			errs = append(errs, &Error{File: name, Line: ln, Func: f.Name, Field: field, Msg: msg})
		}
		if f.Name == "" {
			errs = append(errs, &Error{File: name, Line: ln, Field: "name",
				Msg: fmt.Sprintf("functions[%d] has no name", i)})
			continue
		}
		if prev, dup := seen[f.Name]; dup {
			fail("name", fmt.Sprintf("duplicate entry (first declared at line %d)", lineOf(prev)))
			continue
		}
		seen[f.Name] = i

		switch f.Kind {
		case KindSource, KindSink, KindModel:
		default:
			fail("kind", fmt.Sprintf("unknown kind %q (want source, sink, or model)", f.Kind))
			continue
		}
		if f.Kind == KindSink {
			if !validClasses[f.Class] {
				fail("class", fmt.Sprintf("unknown sink class %q", f.Class))
			}
		} else if f.Class != "" {
			fail("class", fmt.Sprintf("class %q is only valid on sinks", f.Class))
		}

		roleSeen := map[string]int{}
		for j, a := range f.Args {
			argField := fmt.Sprintf("args[%d]", j)
			if !validTypes[a.Type] {
				fail(argField+".type", fmt.Sprintf("unknown type %q (want char*, ptr, or int)", a.Type))
			}
			if a.Role != "" && !validRoles[a.Role] {
				fail(argField+".role", fmt.Sprintf("unknown role %q", a.Role))
				continue
			}
			if a.Role != "" && a.Role != RoleSrc {
				if prev, dup := roleSeen[a.Role]; dup {
					fail(argField+".role", fmt.Sprintf("role %q already assigned to arg %d", a.Role, prev))
				}
				roleSeen[a.Role] = j
			}
		}
		for role, idx := range f.Roles {
			field := fmt.Sprintf("roles[%q]", role)
			if !validRoles[role] {
				fail(field, fmt.Sprintf("unknown role %q", role))
				continue
			}
			if idx < 0 || idx >= len(f.Args) {
				fail(field, fmt.Sprintf("index %d points past the %d-entry arg list", idx, len(f.Args)))
				continue
			}
			if r := f.Args[idx].Role; r != "" && r != role {
				fail(field, fmt.Sprintf("arg %d already carries role %q", idx, r))
			}
			if prev, dup := roleSeen[role]; dup && role != RoleSrc {
				fail(field, fmt.Sprintf("role %q already assigned to arg %d", role, prev))
			}
			roleSeen[role] = idx
		}

		switch f.Variadic {
		case "", RoleSrc, RoleDest:
		default:
			fail("variadic", fmt.Sprintf("unknown variadic role %q (want src or dest)", f.Variadic))
		}
		if f.Variadic != "" && f.RoleIndex(RoleFormat) < 0 {
			fail("variadic", "variadic entries need a format-role argument to anchor the varargs")
		}
		switch f.Ret {
		case "", TypeVoid, TypeCharPtr, TypePtr, TypeInt:
		default:
			fail("ret", fmt.Sprintf("unknown return type %q", f.Ret))
		}
		if gb := f.GuardByte; gb != "" {
			if len(gb) != 1 {
				fail("guardByte", fmt.Sprintf("%q is not a single byte", gb))
			}
			if f.Kind != KindSink {
				fail("guardByte", "guard bytes are only valid on sinks")
			}
		}
		if f.Model != "" && f.Kind != KindModel {
			fail("model", "the model field is only valid on kind \"model\" entries")
		}

		switch f.Kind {
		case KindSource:
			if !f.RetTaint && f.RoleIndex(RoleDest) < 0 {
				fail("", "a source must either return tainted data (retTaint) or declare a dest-role argument")
			}
		case KindSink:
			if f.RetTaint {
				fail("retTaint", "retTaint is only valid on sources")
			}
			if !f.Unbounded && f.RoleIndex(RoleSrc) < 0 && f.RoleIndex(RoleFormat) < 0 &&
				f.RoleIndex(RoleExec) < 0 && f.RoleIndex(RolePath) < 0 && f.RoleIndex(RoleLen) < 0 {
				fail("", "a sink needs at least one src/format/exec/path/len-role argument (or unbounded)")
			}
			switch f.Class {
			case ClassCommandInjection:
				if f.RoleIndex(RoleExec) < 0 {
					fail("", "a command-injection sink needs an exec-role argument")
				}
			case ClassPathTraversal:
				if f.RoleIndex(RolePath) < 0 {
					fail("", "a path-traversal sink needs a path-role argument")
				}
			case ClassFormatString:
				if f.RoleIndex(RoleFormat) < 0 {
					fail("", "a format-string sink needs a format-role argument")
				}
			}
		case KindModel:
			if !validModels[f.Model] {
				fail("model", fmt.Sprintf("unknown model %q", f.Model))
			}
			if f.RetTaint {
				fail("retTaint", "retTaint is only valid on sources")
			}
			switch f.Model {
			case ModelLenOf, ModelParseInt, ModelByteScan:
				if f.RoleIndex(RoleSrc) < 0 {
					fail("model", fmt.Sprintf("model %q needs a src-role argument", f.Model))
				}
			}
			if f.Model == ModelByteScan && f.RoleIndex(RoleByte) < 0 {
				fail("model", "a byte-scan model needs a byte-role argument")
			}
		}
		if f.Unsigned && f.Model != ModelParseInt {
			fail("unsigned", "unsigned is only valid on parse-int models")
		}
	}
	return errs
}

// joinErrors folds validation failures into one error, newline-
// separated so every line keeps its file:line prefix.
func joinErrors(errs []error) error {
	if len(errs) == 1 {
		return errs[0]
	}
	msgs := make([]string, len(errs))
	for i, e := range errs {
		msgs[i] = e.Error()
	}
	return fmt.Errorf("%s", strings.Join(msgs, "\n"))
}

// Fingerprint returns a stable digest of the vocabulary's semantic
// content. It is folded into every options fingerprint, so a changed
// vocabulary misses the summary-store and fleet caches while an
// identical one replays warm.
func (s *Spec) Fingerprint() string {
	blob, err := json.Marshal(s)
	if err != nil {
		// A Spec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("vocab: fingerprint: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:8])
}

// SourceNames returns the non-aux source names in declaration order.
func (s *Spec) SourceNames() []string { return s.namesOf(KindSource) }

// SinkNames returns the non-aux sink names in declaration order.
func (s *Spec) SinkNames() []string { return s.namesOf(KindSink) }

func (s *Spec) namesOf(kind string) []string {
	var out []string
	for i := range s.Functions {
		if f := &s.Functions[i]; f.Kind == kind && !f.Aux {
			out = append(out, f.Name)
		}
	}
	return out
}
