// Package dtaint is a from-scratch reproduction of "DTaint: Detecting the
// Taint-Style Vulnerability in Embedded Device Firmware" (Cheng et al.,
// DSN 2018): a static binary analysis that finds taint-style
// vulnerabilities (buffer overflows, command injections) in Linux-based
// firmware without source code and without emulation.
//
// The analysis pipeline is the paper's: firmware container unpacking,
// decoding to one architecture-neutral instruction form, per-function
// static symbolic analysis producing definition pairs over "base + offset"
// memory expressions, pointer-alias recognition (Algorithm 1), indirect-call
// resolution through data-structure layout similarity, bottom-up
// interprocedural data-flow generation (Algorithm 2, every function
// analyzed once), and source→sink path checking against sanitization
// constraints.
//
// Quick start:
//
//	a := dtaint.New()
//	report, err := a.AnalyzeFirmware(imageBytes, "/htdocs/cgibin")
//	if err != nil { ... }
//	for _, v := range report.Vulnerabilities() {
//	    fmt.Println(v)
//	}
//
// Because real vendor firmware requires proprietary images, the module
// also ships a deterministic synthetic-firmware generator mirroring the
// paper's six study images (see GenerateStudyFirmware), so every
// experiment in the paper's evaluation can be regenerated offline.
package dtaint

import (
	"errors"
	"fmt"
	"sort"

	"dtaint/internal/corpus"
	"dtaint/internal/dataflow"
	"dtaint/internal/emul"
	"dtaint/internal/firmware"
	"dtaint/internal/fleet"
	"dtaint/internal/image"
	"dtaint/internal/obs"
	"dtaint/internal/obs/events"
	"dtaint/internal/symexec"
	"dtaint/internal/taint"
	"dtaint/internal/vocab"
)

// Class is a vulnerability class: the value of Finding.Class.
type Class = string

// Vulnerability classes.
const (
	ClassBufferOverflow   Class = "buffer-overflow"
	ClassCommandInjection Class = "command-injection"
	// ClassOffByOne marks a copy whose proven length bound equals the
	// destination capacity exactly: the NUL terminator (or an inclusive
	// `<=` guard) overruns the buffer by a single byte.
	ClassOffByOne Class = "off-by-one"
	// ClassLengthTruncation marks a tainted length narrowed through a
	// 1-byte store: the truncated value defeats any later bound check.
	ClassLengthTruncation Class = "length-truncation"
	// ClassFormatString marks attacker-controlled data reaching the
	// format argument of a printf-family sink.
	ClassFormatString Class = "format-string"
	// ClassPathTraversal marks attacker-controlled data reaching the
	// path argument of a file operation without a '.'-probe.
	ClassPathTraversal Class = "path-traversal"
)

// Finding is one (source, path, sink) tuple discovered by the analysis.
// It is the finding of every report — single-binary, fleet, corpus and
// diff — and of dtaintd's and the CLI's JSON.
type Finding = fleet.Finding

// Report is the result of analyzing one firmware binary: the same type
// a fleet scan carries per binary (BinaryScan.Analysis), the report
// cache stores, and dtaintd serves.
type Report = fleet.BinaryAnalysis

// Option configures an Analyzer.
type Option func(*Analyzer)

// WithFunctionFilter restricts the analysis to functions for which keep
// returns true (the paper restricts the large camera binaries to their
// network modules).
func WithFunctionFilter(keep func(name string) bool) Option {
	return func(a *Analyzer) { a.opts.Filter = keep }
}

// WithoutAliasAnalysis disables pointer-alias recognition (Algorithm 1) —
// an ablation switch.
func WithoutAliasAnalysis() Option {
	return func(a *Analyzer) { a.opts.DisableAlias = true }
}

// WithoutStructSimilarity disables indirect-call resolution through
// data-structure layout similarity — an ablation switch.
func WithoutStructSimilarity() Option {
	return func(a *Analyzer) { a.opts.DisableStructSim = true }
}

// WithoutSSE disables structured symbolic expressions — an ablation
// switch. Pointer-alias rewriting falls back to the paper's pairwise
// Algorithm 1 and indirect calls are resolved by data-structure layout
// similarity alone instead of from SSE equivalence classes.
func WithoutSSE() Option {
	return func(a *Analyzer) { a.opts.DisableSSE = true }
}

// WithoutValueRange disables the interval value-range domain — an
// ablation switch. Sink verdicts fall back to the purely structural
// constraint checks: off-by-one and length-truncation findings disappear
// and interval-proven-safe copies are reported again. Path discovery is
// unaffected.
func WithoutValueRange() Option {
	return func(a *Analyzer) { a.opts.DisableVRange = true }
}

// WithStateBudget caps the symbolic states explored per function.
func WithStateBudget(perBlock, perFunction int) Option {
	return func(a *Analyzer) {
		a.opts.Symexec.MaxStatesPerBlock = perBlock
		a.opts.Symexec.MaxStatesPerFunc = perFunction
	}
}

// WithLoopUnrolling replaces the paper's loop-once heuristic with bounded
// unrolling of iters iterations — an ablation switch.
func WithLoopUnrolling(iters int) Option {
	return func(a *Analyzer) {
		a.opts.Symexec.LoopOnce = false
		a.opts.Symexec.MaxLoopIters = iters
	}
}

// WithParallelism sets the worker count for both analysis phases
// (0 = GOMAXPROCS): the per-function phase fans out over independent
// functions, and the bottom-up interprocedural phase schedules SCC
// components of the condensed call graph as their callees complete.
// Results are identical for every worker count.
func WithParallelism(workers int) Option {
	return func(a *Analyzer) { a.opts.Parallelism = workers }
}

// WithSummaryStore attaches a shared function-summary store: each
// analyzed function's summary is keyed by a fingerprint of its bytes,
// its ISA, and the analysis-options version, and looked up before
// symbolic execution. Across analyses of binaries that share code, each
// unique function is executed once. Results are bit-identical with and
// without the store.
func WithSummaryStore(store *SummaryStore) Option {
	return func(a *Analyzer) { a.opts.SummaryStore = store.s }
}

// WithBufferSource registers a custom input-source function that fills
// the buffer passed as argument bufArg with attacker-controlled data
// (read/recv-style). Vendor firmware commonly has private input wrappers
// beyond Table I; like every custom source and sink, this one becomes a
// vocabulary entry (see New).
func WithBufferSource(name string, bufArg int) Option {
	f := vocab.Func{Name: name, Kind: vocab.KindSource}
	setRole(&f, vocab.RoleDest, bufArg)
	return withEntry(f)
}

// WithReturningSource registers a custom input source that returns a
// pointer to attacker-controlled data (getenv/nvram_get-style).
func WithReturningSource(name string) Option {
	return withEntry(vocab.Func{Name: name, Kind: vocab.KindSource, RetTaint: true})
}

// WithSink registers a custom sensitive sink: dataArg is the argument
// whose pointed-to content must not be attacker-controlled; lenArg is the
// copy-bound argument whose constraint counts as sanitization (-1 when
// the check applies to the data itself). Only buffer-overflow sinks use
// lenArg; any class other than command injection, format string and
// path traversal registers a buffer-overflow sink.
func WithSink(name string, class Class, dataArg, lenArg int) Option {
	f := vocab.Func{Name: name, Kind: vocab.KindSink}
	switch class {
	case ClassCommandInjection:
		f.Class = vocab.ClassCommandInjection
		setRole(&f, vocab.RoleExec, dataArg)
	case ClassFormatString:
		f.Class = vocab.ClassFormatString
		setRole(&f, vocab.RoleFormat, dataArg)
	case ClassPathTraversal:
		f.Class = vocab.ClassPathTraversal
		setRole(&f, vocab.RolePath, dataArg)
	default:
		f.Class = vocab.ClassBufferOverflow
		setRole(&f, vocab.RoleSrc, dataArg)
		setRole(&f, vocab.RoleLen, lenArg)
	}
	return withEntry(f)
}

// withEntry records a custom vocabulary entry; a later entry of the same
// name replaces an earlier one.
func withEntry(f vocab.Func) Option {
	return func(a *Analyzer) { a.custom[f.Name] = f }
}

// setRole gives f's argument i the role, declaring untyped arguments up
// to it; a negative i declares no such argument.
func setRole(f *vocab.Func, role string, i int) {
	if i < 0 {
		return
	}
	for len(f.Args) <= i {
		f.Args = append(f.Args, vocab.Arg{})
	}
	if f.Roles == nil {
		f.Roles = make(map[string]int)
	}
	f.Roles[role] = i
}

// extendVocabulary compiles base (nil = the default) with the custom
// entries. Each entry replaces the base entry of its name, and entries
// are appended sorted by name, so the fingerprint does not depend on
// the order the options were given in.
func extendVocabulary(base *taint.Vocabulary, custom map[string]vocab.Func) *taint.Vocabulary {
	if base == nil {
		base = taint.DefaultVocabulary()
	}
	spec := &vocab.Spec{Version: base.Spec().Version}
	for _, f := range base.Spec().Functions {
		if _, ok := custom[f.Name]; !ok {
			spec.Functions = append(spec.Functions, f)
		}
	}
	names := make([]string, 0, len(custom))
	for name := range custom {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		spec.Functions = append(spec.Functions, custom[name])
	}
	return taint.MustCompileVocabulary(spec)
}

// Vocabulary is a compiled source/sink/sanitizer vocabulary (see
// internal/vocab for the JSON spec format). The zero value is not
// usable; obtain one from LoadVocabulary, ParseVocabulary, or
// DefaultVocabulary.
type Vocabulary struct {
	v *taint.Vocabulary
}

// LoadVocabulary reads, validates, and compiles a vocabulary spec file.
// Malformed specs are rejected with line/field-precise errors.
func LoadVocabulary(path string) (*Vocabulary, error) {
	spec, err := vocab.Load(path)
	if err != nil {
		return nil, err
	}
	cv, err := taint.CompileVocabulary(spec)
	if err != nil {
		return nil, err
	}
	return &Vocabulary{v: cv}, nil
}

// ParseVocabulary validates and compiles a vocabulary spec from memory;
// name labels the source in error messages.
func ParseVocabulary(data []byte, name string) (*Vocabulary, error) {
	spec, err := vocab.Parse(data, name)
	if err != nil {
		return nil, err
	}
	cv, err := taint.CompileVocabulary(spec)
	if err != nil {
		return nil, err
	}
	return &Vocabulary{v: cv}, nil
}

// DefaultVocabulary returns the embedded default vocabulary (Table I
// plus the NVRAM/printf/file-op extensions).
func DefaultVocabulary() *Vocabulary {
	return &Vocabulary{v: taint.DefaultVocabulary()}
}

// Fingerprint returns the vocabulary's content digest. Identical specs
// share a fingerprint; any semantic edit changes it, which invalidates
// cached summaries and fleet reports keyed on the options fingerprint.
func (v *Vocabulary) Fingerprint() string { return v.v.Fingerprint() }

// SourceNames returns the vocabulary's input-source census.
func (v *Vocabulary) SourceNames() []string { return v.v.SourceNames() }

// SinkNames returns the vocabulary's sensitive-sink census.
func (v *Vocabulary) SinkNames() []string { return v.v.SinkNames() }

// Functions returns the number of modeled functions in the spec.
func (v *Vocabulary) Functions() int { return len(v.v.Spec().Functions) }

// WithVocabulary replaces the embedded default vocabulary: every
// library-call model, the sink census, the type prototypes, and the
// sanitization verdicts follow the given spec. Nil keeps the default.
func WithVocabulary(v *Vocabulary) Option {
	return func(a *Analyzer) {
		if v != nil {
			a.opts.Vocab = v.v
		}
	}
}

// Analyzer runs the DTaint pipeline. The zero value is not usable; call
// New.
type Analyzer struct {
	opts dataflow.Options
	// custom holds the WithBufferSource/WithReturningSource/WithSink
	// entries by name; New compiles them into opts.Vocab.
	custom map[string]vocab.Func
	// journal is the live-telemetry event ring attached with
	// WithEventJournal; New wires it into the analysis options.
	journal *events.Journal
}

// New returns an Analyzer with the paper's default configuration. After
// every option has applied, custom sources and sinks become entries of
// the configured vocabulary (or the default), so the order of
// WithVocabulary and the With* helpers does not matter.
func New(opts ...Option) *Analyzer {
	a := &Analyzer{custom: make(map[string]vocab.Func)}
	a.opts.Symexec.LoopOnce = true
	for _, o := range opts {
		o(a)
	}
	if len(a.custom) > 0 {
		a.opts.Vocab = extendVocabulary(a.opts.Vocab, a.custom)
	}
	// Wire telemetry after all options have applied, so the result does
	// not depend on the order of WithTracer and WithEventJournal: the
	// journal gets an emitter the analysis emits progress and finding
	// events through, and — when a tracer is attached too — every span
	// start/end is bridged into the journal as a typed event.
	a.opts.Events = a.journal.Emitter("")
	if a.opts.Events != nil {
		events.Bridge(a.opts.Tracer, a.opts.Events)
	}
	return a
}

// Errors returned by the analyzer entry points.
var (
	// ErrNoBinary is returned when the requested executable is not in the
	// firmware's root filesystem.
	ErrNoBinary = errors.New("dtaint: binary not found in firmware root filesystem")
)

// AnalyzeFirmware unpacks a firmware image (scanning for the container at
// any offset, as Binwalk does), extracts its root filesystem, loads the
// executable at binaryPath, and analyzes it. If binaryPath is empty, the
// first executable that parses as a program image is analyzed.
func (a *Analyzer) AnalyzeFirmware(data []byte, binaryPath string) (*Report, error) {
	st := a.opts.StartStage("unpack-firmware", obs.KV("bytes", len(data)))
	_, fs, err := firmware.Unpack(data)
	if err != nil {
		st.End()
		return nil, fmt.Errorf("unpack firmware: %w", err)
	}
	st.End("files", len(fs.Files))
	if binaryPath != "" {
		f, err := fs.Lookup(binaryPath)
		if err != nil {
			return nil, fmt.Errorf("%w: %q", ErrNoBinary, binaryPath)
		}
		return a.analyzeFile(f)
	}
	for _, f := range fs.Files {
		if _, err := image.Parse(f.Data); err == nil {
			return a.analyzeFile(f)
		}
	}
	return nil, ErrNoBinary
}

// AnalyzeExecutable analyzes a serialized program image (FWELF bytes).
func (a *Analyzer) AnalyzeExecutable(data []byte) (*Report, error) {
	return a.analyzeFile(firmware.File{Path: "executable", Data: data})
}

// analyzeFile runs the fleet's per-binary pipeline — the one every scan
// surface shares — and adds the runtime snapshot.
func (a *Analyzer) analyzeFile(f firmware.File) (*Report, error) {
	rep, err := fleet.AnalyzeBinary(f, a.opts)
	if err != nil {
		return nil, err
	}
	rt := obs.CaptureRuntimeStats()
	rep.Runtime = &rt
	return rep, nil
}

// Sources returns the attacker-controlled input functions of Table I.
func Sources() []string { return append([]string(nil), taint.Sources...) }

// Sinks returns the security-sensitive sink functions of Table I.
func Sinks() []string { return append([]string(nil), taint.Sinks...) }

// ---------------------------------------------------------------------------
// Synthetic corpus access (the substitute for proprietary vendor firmware).

// StudyImage identifies one of the paper's six study images.
type StudyImage struct {
	Vendor     string
	Product    string
	Version    string
	Binary     string
	BinaryPath string
	Arch       string
}

// StudyImages lists the six firmware images of the paper's Table II.
func StudyImages() []StudyImage {
	var out []StudyImage
	for _, s := range corpus.StudyImages() {
		out = append(out, StudyImage{
			Vendor:     s.Vendor,
			Product:    s.Product,
			Version:    s.Version,
			Binary:     s.BinaryName,
			BinaryPath: corpus.BinaryPathFor(s),
			Arch:       s.Arch.String(),
		})
	}
	return out
}

// GenerateStudyFirmware deterministically generates the named study image
// as a packed firmware container. scale in (0, 1] shrinks the filler code
// (1.0 reproduces the paper's binary sizes; the planted vulnerabilities
// are present at every scale).
func GenerateStudyFirmware(product string, scale float64) ([]byte, error) {
	spec, ok := corpus.SpecByProduct(product)
	if !ok {
		return nil, fmt.Errorf("dtaint: unknown study product %q", product)
	}
	data, _, err := corpus.BuildFirmware(spec, scale)
	return data, err
}

// StudyModuleFilter returns the function filter the paper uses for the
// named product (non-nil only for the two large camera binaries, which
// are restricted to their network modules).
func StudyModuleFilter(product string) func(string) bool {
	spec, ok := corpus.SpecByProduct(product)
	if !ok {
		return nil
	}
	return corpus.ModuleFilter(spec)
}

// GenerateOpenSSL generates the OpenSSL-like executable with the
// Heartbleed weakness (Section II-B) as serialized program-image bytes.
func GenerateOpenSSL(scale float64) ([]byte, error) {
	bin, err := corpus.OpenSSL(scale)
	if err != nil {
		return nil, err
	}
	return bin.Marshal()
}

// EmulationYearStat is one histogram bar of the paper's Figure 1.
type EmulationYearStat struct {
	Year     int
	Total    int
	Emulable int
}

// EmulationStudy reproduces the Section II-A experiment: it boots the
// 6,529-image synthetic population in a FIRMADYNE-like emulation model
// and reports per-release-year success counts (Figure 1).
func EmulationStudy() []EmulationYearStat {
	e := emul.New()
	var out []EmulationYearStat
	for _, st := range e.Study(corpus.Population()) {
		out = append(out, EmulationYearStat{Year: st.Year, Total: st.Total, Emulable: st.Success})
	}
	return out
}

// compile-time interface checks for internal plumbing this package relies
// on staying stable.
var _ symexec.Oracle = (*taint.Tracker)(nil)
