// vocabulary.go compiles a declarative vocab.Spec into the dispatch
// tables the tracker executes: one fnModel per entry, the census
// source/sink name lists, the library prototypes for type inference,
// and the set of sanitizer guard bytes the byte-scan model registers.
package taint

import (
	"fmt"
	"sync"

	"dtaint/internal/expr"
	"dtaint/internal/symexec"
	"dtaint/internal/vocab"
)

// modelKind selects the propagation/observation behavior of one
// compiled vocabulary entry.
type modelKind int

const (
	kindBufferSource  modelKind = iota + 1 // fills a dest argument with attacker data
	kindReturnSource                       // returns a pointer to attacker data
	kindCopy                               // unbounded NUL copy src -> dest (strcpy/strcat)
	kindBoundedCopy                        // explicit-length copy (strncpy/strncat)
	kindRawCopy                            // explicit-length raw copy; tainted length alone is a finding (memcpy)
	kindFormatCopy                         // format + variadic srcs -> dest (sprintf/snprintf)
	kindScanCopy                           // src + format -> variadic dests (sscanf)
	kindUnboundedRead                      // no bound can apply (gets)
	kindSepSink                            // data sink sanitized by a separator-byte check (system/popen/open)
	kindFormatSink                         // tainted format string is the finding (printf family)
	kindLenOf                              // returns the content length (strlen)
	kindParseInt                           // returns an integer parsed from content (atoi/strtol)
	kindByteScan                           // registers separator guards (strchr)
	kindAlloc                              // fresh heap pointer (malloc)
	kindNop                                // no taint effect
)

// fnModel is one vocabulary entry compiled for dispatch. Role indices
// are -1 when the entry has no argument with that role.
type fnModel struct {
	name      string
	kind      modelKind
	class     Class
	src       int // primary src-role argument
	dest      int
	lenArg    int
	fmtArg    int
	dataArg   int // exec/path argument of a kindSepSink
	baseArg   int
	byteArg   int
	nul       bool
	appendTo  bool
	unsigned  bool
	guardByte byte
}

// Vocabulary is a compiled vocabulary: the engine-facing form of a
// vocab.Spec. It is immutable after compilation and safe to share
// across trackers and worker goroutines.
type Vocabulary struct {
	spec        *vocab.Spec
	models      map[string]fnModel
	sources     []string
	sinks       []string // census sinks, "loop" appended last
	protos      map[string]symexec.Proto
	guardBytes  map[byte]bool
	fingerprint string
}

// CompileVocabulary validates nothing the vocab package has not
// already enforced; it translates a well-formed Spec into dispatch
// form. Entries whose shape cannot be classified are a compile error,
// so a vocabulary never silently loses a function.
func CompileVocabulary(spec *vocab.Spec) (*Vocabulary, error) {
	v := &Vocabulary{
		spec:        spec,
		models:      make(map[string]fnModel, len(spec.Functions)),
		protos:      make(map[string]symexec.Proto, len(spec.Functions)),
		guardBytes:  make(map[byte]bool),
		fingerprint: spec.Fingerprint(),
	}
	for i := range spec.Functions {
		f := &spec.Functions[i]
		m, err := compileFunc(f)
		if err != nil {
			return nil, fmt.Errorf("vocab entry %q: %w", f.Name, err)
		}
		v.models[f.Name] = m
		if m.guardByte != 0 {
			v.guardBytes[m.guardByte] = true
		}
		if p, ok := protoOf(f); ok {
			v.protos[f.Name] = p
		}
		if !f.Aux {
			switch f.Kind {
			case vocab.KindSource:
				v.sources = append(v.sources, f.Name)
			case vocab.KindSink:
				v.sinks = append(v.sinks, f.Name)
			}
		}
	}
	// The structural loop-copy sink of Table I is not a named function;
	// it closes the census list.
	v.sinks = append(v.sinks, LoopSink)
	return v, nil
}

// MustCompileVocabulary is CompileVocabulary for specs already known
// valid (the embedded default, test fixtures).
func MustCompileVocabulary(spec *vocab.Spec) *Vocabulary {
	v, err := CompileVocabulary(spec)
	if err != nil {
		panic(err)
	}
	return v
}

var defaultVocabOnce sync.Once
var defaultVocab *Vocabulary

// DefaultVocabulary returns the compiled embedded default vocabulary.
func DefaultVocabulary() *Vocabulary {
	defaultVocabOnce.Do(func() {
		defaultVocab = MustCompileVocabulary(vocab.Default())
	})
	return defaultVocab
}

// Spec returns the declarative spec this vocabulary was compiled from.
func (v *Vocabulary) Spec() *vocab.Spec { return v.spec }

// Fingerprint returns the spec's content digest (see
// vocab.Spec.Fingerprint).
func (v *Vocabulary) Fingerprint() string { return v.fingerprint }

// SourceNames returns the census source names in declaration order.
func (v *Vocabulary) SourceNames() []string {
	return append([]string(nil), v.sources...)
}

// SinkNames returns the census sink names in declaration order, with
// the structural "loop" sink appended.
func (v *Vocabulary) SinkNames() []string {
	return append([]string(nil), v.sinks...)
}

// Prototypes returns the library type signatures derived from the
// vocabulary's declared argument and return types. The map is the
// vocabulary's own, shared by every analysis it serves, and must not be
// modified.
func (v *Vocabulary) Prototypes() map[string]symexec.Proto { return v.protos }

// compileFunc classifies one entry into its dispatch kind.
func compileFunc(f *vocab.Func) (fnModel, error) {
	m := fnModel{
		name:     f.Name,
		src:      f.RoleIndex(vocab.RoleSrc),
		dest:     f.RoleIndex(vocab.RoleDest),
		lenArg:   f.RoleIndex(vocab.RoleLen),
		fmtArg:   f.RoleIndex(vocab.RoleFormat),
		baseArg:  f.RoleIndex(vocab.RoleBase),
		byteArg:  f.RoleIndex(vocab.RoleByte),
		dataArg:  -1,
		nul:      f.Nul,
		appendTo: f.Append,
	}
	if f.GuardByte != "" {
		m.guardByte = f.GuardByte[0]
	}
	switch f.Kind {
	case vocab.KindSource:
		if f.RetTaint {
			m.kind = kindReturnSource
		} else {
			m.kind = kindBufferSource
		}
		return m, nil

	case vocab.KindSink:
		switch f.Class {
		case vocab.ClassCommandInjection:
			m.kind = kindSepSink
			m.class = ClassCommandInjection
			m.dataArg = f.RoleIndex(vocab.RoleExec)
			if m.guardByte == 0 {
				m.guardByte = SemicolonByte
			}
		case vocab.ClassPathTraversal:
			m.kind = kindSepSink
			m.class = ClassPathTraversal
			m.dataArg = f.RoleIndex(vocab.RolePath)
			if m.guardByte == 0 {
				m.guardByte = DotByte
			}
		case vocab.ClassFormatString:
			m.kind = kindFormatSink
			m.class = ClassFormatString
		case vocab.ClassBufferOverflow:
			m.class = ClassBufferOverflow
			switch {
			case f.Unbounded:
				m.kind = kindUnboundedRead
			case m.fmtArg >= 0 && f.Variadic == vocab.RoleDest:
				m.kind = kindScanCopy
			case m.fmtArg >= 0:
				m.kind = kindFormatCopy
			case f.LenTaint:
				m.kind = kindRawCopy
			case m.lenArg >= 0:
				m.kind = kindBoundedCopy
			default:
				m.kind = kindCopy
			}
		default:
			return m, fmt.Errorf("unclassifiable sink class %q", f.Class)
		}
		return m, nil

	case vocab.KindModel:
		switch f.Model {
		case vocab.ModelLenOf:
			m.kind = kindLenOf
		case vocab.ModelParseInt:
			m.kind = kindParseInt
			m.unsigned = f.Unsigned
		case vocab.ModelByteScan:
			m.kind = kindByteScan
		case vocab.ModelAlloc:
			m.kind = kindAlloc
		case vocab.ModelNop:
			m.kind = kindNop
		default:
			return m, fmt.Errorf("unclassifiable model %q", f.Model)
		}
		return m, nil
	}
	return m, fmt.Errorf("unclassifiable kind %q", f.Kind)
}

// protoOf derives the symexec prototype from an entry's declared
// types. Entries with no type information contribute no prototype.
func protoOf(f *vocab.Func) (symexec.Proto, bool) {
	var p symexec.Proto
	typed := false
	for _, a := range f.Args {
		t := exprType(a.Type)
		p.Args = append(p.Args, t)
		if t != expr.TypeUnknown {
			typed = true
		}
	}
	if rt := exprType(f.Ret); rt != expr.TypeUnknown {
		p.Ret = rt
		typed = true
	}
	return p, typed
}

func exprType(t string) expr.Type {
	switch t {
	case vocab.TypeCharPtr:
		return expr.TypeCharPtr
	case vocab.TypePtr:
		return expr.TypePtr
	case vocab.TypeInt:
		return expr.TypeInt
	}
	return expr.TypeUnknown
}
