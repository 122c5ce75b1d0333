package dtaint

import (
	"io"
	"log/slog"
	"time"

	"dtaint/internal/obs"
	"dtaint/internal/obs/events"
)

// Tracer records spans for every pipeline stage an Analyzer (or fleet
// scan) runs: firmware unpacking, image parsing, CFG recovery, the
// per-function symbolic phase, struct-similarity resolution, the
// bottom-up interprocedural pass (with per-SCC-component and
// per-function child spans), and per-binary fleet scans. Attach one
// with WithTracer; a nil *Tracer disables tracing. Safe for concurrent
// use.
type Tracer struct{ t *obs.Tracer }

// NewTracer returns an empty tracer whose trace clock starts now.
func NewTracer() *Tracer { return &Tracer{t: obs.NewTracer()} }

// WriteChromeTrace exports the collected spans as Chrome trace_event
// JSON, loadable in chrome://tracing and Perfetto (ui.perfetto.dev).
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return (*obs.Tracer)(nil).WriteChromeTrace(w)
	}
	return t.t.WriteChromeTrace(w)
}

// SpanNames returns the distinct names of finished spans, sorted.
func (t *Tracer) SpanNames() []string {
	if t == nil {
		return nil
	}
	return t.t.SpanNames()
}

// SpanEvent is the view of a span handed to OnSpanStart/OnSpanEnd
// observers (Duration is zero in start events).
type SpanEvent struct {
	Name     string
	Start    time.Time
	Duration time.Duration
	Attrs    map[string]any
}

func spanEvent(r obs.SpanRecord) SpanEvent {
	ev := SpanEvent{Name: r.Name, Start: r.Start, Duration: r.Duration}
	if len(r.Attrs) > 0 {
		ev.Attrs = make(map[string]any, len(r.Attrs))
		for _, a := range r.Attrs {
			ev.Attrs[a.Key] = a.Value
		}
	}
	return ev
}

// OnSpanStart registers fn to run synchronously whenever a span starts —
// the hook progress reporting is built on. Register before analyzing.
func (t *Tracer) OnSpanStart(fn func(SpanEvent)) {
	if t == nil {
		return
	}
	t.t.OnSpanStart(func(r obs.SpanRecord) { fn(spanEvent(r)) })
}

// OnSpanEnd registers fn to run synchronously whenever a span ends.
func (t *Tracer) OnSpanEnd(fn func(SpanEvent)) {
	if t == nil {
		return
	}
	t.t.OnSpanEnd(func(r obs.SpanRecord) { fn(spanEvent(r)) })
}

// Metrics is a registry of counters, gauges, and histograms the
// pipeline populates: per-function analysis-time and states-explored
// histograms, totals for functions/def-pairs/findings, and fleet cache
// hit ratios. Attach one with WithMetrics; nil disables collection.
type Metrics struct{ r *obs.Registry }

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return &Metrics{r: obs.NewRegistry()} }

// WriteJSON writes every metric as a JSON document.
func (m *Metrics) WriteJSON(w io.Writer) error { return m.registry().WriteJSON(w) }

// WritePrometheus writes every metric in the Prometheus text
// exposition format.
func (m *Metrics) WritePrometheus(w io.Writer) error { return m.registry().WritePrometheus(w) }

func (m *Metrics) registry() *obs.Registry {
	if m == nil {
		return nil
	}
	return m.r
}

// RuntimeStats is a snapshot of the Go runtime taken when an analysis
// finished — the memory and scheduling context embedded in reports.
type RuntimeStats = obs.RuntimeStats

// EventJournal is a bounded in-memory ring of live telemetry events:
// typed, sequence-numbered records of everything an analysis does —
// stages entered and left, binaries started and finished, per-stage
// progress with moving-rate ETA, findings as they are merged, cache and
// summary-store activity, stalls. Attach one with WithEventJournal;
// when a Tracer is attached too, every span start/end is bridged into
// the journal as an event. Event content (wall-clock fields excluded)
// is deterministic for any worker count. Safe for concurrent use.
type EventJournal struct{ j *events.Journal }

// NewEventJournal returns a journal keeping the last size events
// (<= 0 selects the default of 4096).
func NewEventJournal(size int) *EventJournal {
	return &EventJournal{j: events.NewJournal(size)}
}

// AttachProgressPrinter subscribes the standard progress renderer: one
// "dtaint: ..." line per stage transition, decile progress with
// percentages and ETA, per-binary completion lines — the exact output
// of dtaint -progress. It returns a function removing the subscription.
func (j *EventJournal) AttachProgressPrinter(w io.Writer) (remove func()) {
	if j == nil {
		return func() {}
	}
	return events.AttachPrinter(j.j, w)
}

// EventJournalStats snapshots a journal's ring usage.
type EventJournalStats struct {
	// Appended is the total events ever published; Dropped the subset
	// already overwritten by the wrapping ring.
	Appended uint64
	Dropped  uint64
	// Capacity is the ring size; HighWater the peak occupancy reached.
	Capacity  int
	HighWater int
}

// Stats returns the journal's usage counters.
func (j *EventJournal) Stats() EventJournalStats {
	if j == nil {
		return EventJournalStats{}
	}
	st := j.j.Stats()
	return EventJournalStats{
		Appended:  st.Appended,
		Dropped:   st.Dropped,
		Capacity:  st.Capacity,
		HighWater: st.HighWater,
	}
}

// WithEventJournal attaches a live-telemetry journal: the analysis
// appends progress, finding, and stage events to it as it runs.
func WithEventJournal(j *EventJournal) Option {
	return func(a *Analyzer) {
		if j != nil {
			a.journal = j.j
		}
	}
}

// WithTracer attaches a span tracer: every pipeline stage (and, in
// fleet scans, every binary) is recorded as a span, exportable as
// Chrome trace JSON.
func WithTracer(t *Tracer) Option {
	return func(a *Analyzer) {
		if t != nil {
			a.opts.Tracer = t.t
		}
	}
}

// WithMetrics attaches a metrics registry the pipeline populates.
func WithMetrics(m *Metrics) Option {
	return func(a *Analyzer) {
		if m != nil {
			a.opts.Metrics = m.r
		}
	}
}

// WithLogger attaches a structured logger; the pipeline logs one line
// per stage (and per fleet binary) with stage, duration, and size
// attrs. Nil disables logging.
func WithLogger(l *slog.Logger) Option {
	return func(a *Analyzer) { a.opts.Log = l }
}
