// Package touchicg is the public facade of the reproduction of Sopic,
// Murali, Rincón and Atienza, "Touch-Based System for Beat-to-Beat
// Impedance Cardiogram Acquisition and Hemodynamic Parameters Estimation"
// (DATE 2016).
//
// The package re-exports the device (acquisition + embedded processing
// pipeline), the synthetic subject models that substitute for the paper's
// five volunteers, the evaluation protocol that regenerates every
// table and figure of the paper, and the serving stack's unified typed
// event stream (beats, contact-health transitions, PMU mode changes and
// session lifecycle through one Sink). See DESIGN.md for the system
// inventory and EXPERIMENTS.md for paper-vs-measured results.
//
// Quick start (batch; example_test.go keeps it compiling):
//
//	sub, _ := touchicg.SubjectByID(1)
//	dev, _ := touchicg.NewDevice(touchicg.DefaultConfig())
//	_, out, _ := dev.Run(&sub, 30)
//	for _, b := range out.Beats {
//		fmt.Printf("HR %.0f bpm  PEP %.0f ms  LVET %.0f ms\n",
//			b.HR, b.PEP*1000, b.LVET*1000)
//	}
//
// Streaming, the serving surface — subscribe a sink to a session and
// receive every beat, health transition and lifecycle event in order:
//
//	eng := touchicg.NewEngine(dev, touchicg.DefaultEngineConfig())
//	sess, _ := eng.Subscribe(1, touchicg.EventFunc(func(e touchicg.Event) {
//		if e.Kind == touchicg.KindBeat {
//			fmt.Printf("beat @ %.2fs HR %.0f\n", e.TimeS, e.Params.HR)
//		}
//	}))
//	sess.Push(ecgChunk, zChunk)
//	sess.Close()
//	eng.Close()
package touchicg

import (
	"repro/internal/bioimp"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/hemo"
	"repro/internal/icg"
	"repro/internal/physio"
	"repro/internal/quality"
	"repro/internal/session"
	"repro/internal/study"
	"repro/internal/wal"
)

// Core device types.
type (
	// Device is the touch-based acquisition and processing system.
	Device = core.Device
	// Config selects acquisition and processing options.
	Config = core.Config
	// Acquisition bundles the sampled ECG and impedance channels.
	Acquisition = core.Acquisition
	// Output is the per-recording processing result.
	Output = core.Output
	// BeatParams is the per-beat hemodynamic parameter set.
	BeatParams = hemo.BeatParams
	// Subject is a synthetic study participant.
	Subject = physio.Subject
	// Recording is a synthesized ECG/ICG ground-truth recording.
	Recording = physio.Recording
	// Position is the protocol arm position (1, 2 or 3).
	Position = bioimp.Position
	// StudyConfig parameterizes the evaluation protocol.
	StudyConfig = study.Config
	// StudyResults carries the data behind every table and figure.
	StudyResults = study.Results
	// GateConfig parameterizes the per-beat signal-quality gate.
	GateConfig = quality.GateConfig
	// BeatSQI is the per-beat signal-quality assessment.
	BeatSQI = quality.BeatSQI
	// GatedSummary pairs raw and quality-gated aggregate views.
	GatedSummary = hemo.GatedSummary

	// Engine is the multi-session serving layer: one engine multiplexes
	// thousands of concurrent device streams over a bounded worker pool.
	Engine = session.Engine
	// Session is one device stream served by an Engine.
	Session = session.Session
	// EngineConfig tunes the serving engine (workers, backpressure,
	// health eviction).
	EngineConfig = session.Config
	// HealthConfig arms engine-level eviction of dead-contact sessions.
	HealthConfig = session.HealthConfig
	// StreamHealth is a streamer's contact-health snapshot.
	StreamHealth = core.StreamHealth
	// NonFinitePolicy selects how Push treats NaN/Inf samples
	// (EngineConfig.NonFinite): reject the chunk or sanitize by
	// sample-and-hold.
	NonFinitePolicy = session.NonFinitePolicy
	// ReopenOptions tunes Engine.Reopen (Backfill replays the retained
	// WAL tail before the re-admit event).
	ReopenOptions = session.ReopenOptions

	// WAL is the crash-safe write-ahead event log an engine persists
	// its sessions to (EngineConfig.WAL): CRC-framed records in
	// rotating segments, torn-tail recovery, snapshot retention.
	WAL = wal.Log
	// WALConfig tunes the log (segment size, retention, sync cadence).
	WALConfig = wal.Config
	// WALStats is a point-in-time summary of a log (per-session byte
	// tallies, retained media, recovery counters).
	WALStats = wal.Stats

	// PMU is the power-management policy of Section III-A.
	PMU = core.PMU
	// Governor is the stateful PMU: accept-rate EWMA smoothing plus
	// enter/exit hysteresis and dwell on quality-driven mode flips.
	Governor = core.Governor

	// Event is the typed event union every serving-layer output flows
	// through: beats, health transitions, mode changes, evictions and
	// session closes, each stamped with session ID, beat index and
	// signal time.
	Event = event.Event
	// EventKind tags the Event union (KindBeat, KindHealth, ...).
	EventKind = event.Kind
	// Sink receives events (Engine.Subscribe, Streamer.Emit); Emit must
	// not block and must not call back into the producer.
	Sink = event.Sink
	// EventFunc adapts a function to the Sink interface.
	EventFunc = event.Func
	// EventBuffer is the bounded, drop-counting ring sink — the
	// zero-allocation delivery path and the buffer to put in front of
	// slow consumers.
	EventBuffer = event.Buffer
	// EventTee fans events out to several sinks in order.
	EventTee = event.Tee
	// EventChan bridges events to a consumer goroutine without ever
	// blocking the producer (full channel: drop and count).
	EventChan = event.Chan
)

// Session close reasons (Session.Reason / Event.Reason).
const (
	ReasonClient        = session.ReasonClient
	ReasonDeadContact   = session.ReasonDeadContact
	ReasonInternalError = session.ReasonInternalError
)

// Event kinds (Event.Kind).
const (
	KindBeat          = event.KindBeat
	KindHealth        = event.KindHealth
	KindMode          = event.KindMode
	KindEviction      = event.KindEviction
	KindSessionClosed = event.KindSessionClosed
	KindReadmit       = event.KindReadmit
)

// Non-finite sample policies (EngineConfig.NonFinite).
const (
	NonFiniteReject   = session.NonFiniteReject
	NonFiniteSanitize = session.NonFiniteSanitize
)

// Serving-layer errors.
var (
	// ErrSessionClosed: the session (or engine) is closed.
	ErrSessionClosed = session.ErrSessionClosed
	// ErrSessionEvicted: the engine evicted the session for dead
	// contact (re-admit later via Engine.Reopen).
	ErrSessionEvicted = session.ErrSessionEvicted
	// ErrSessionFailed: a processing stage panicked; the failure is
	// confined to this session (ReasonInternalError).
	ErrSessionFailed = session.ErrSessionFailed
	// ErrChannelMismatch: Push requires equal-length ECG/Z chunks.
	ErrChannelMismatch = session.ErrChannelMismatch
	// ErrNonFiniteSample: NaN/Inf sample rejected (the chunk is not
	// consumed) under the default NonFiniteReject policy.
	ErrNonFiniteSample = session.ErrNonFiniteSample
	// ErrQuarantined: the evicted session's re-admit cool-down
	// (EngineConfig.QuarantineS) has not elapsed yet.
	ErrQuarantined = session.ErrQuarantined
	// ErrNoWAL: SubscribeFrom/Reopen need EngineConfig.WAL armed.
	ErrNoWAL = session.ErrNoWAL
)

// OpenWAL opens (or creates) a crash-safe write-ahead event log in
// dir, recovering any valid prefix a previous process left behind;
// hand it to EngineConfig.WAL to arm session durability.
func OpenWAL(dir string, cfg WALConfig) (*WAL, error) { return wal.Open(dir, cfg) }

// Protocol arm positions.
const (
	Position1 = bioimp.Position1
	Position2 = bioimp.Position2
	Position3 = bioimp.Position3
)

// X-point rule variants (paper Section IV-C vs the Carvalho original).
const (
	XPaper    = icg.XPaper
	XCarvalho = icg.XCarvalho
)

// DefaultConfig returns the configuration used throughout the paper's
// evaluation: 250 Hz sampling, 50 kHz injection, position 1.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewDevice validates the configuration and assembles a device.
func NewDevice(cfg Config) (*Device, error) { return core.NewDevice(cfg) }

// Subjects returns the five calibrated synthetic subjects standing in for
// the paper's five volunteers.
func Subjects() []Subject { return physio.Subjects() }

// SubjectByID returns the subject with the given 1-based ID.
func SubjectByID(id int) (Subject, bool) { return physio.SubjectByID(id) }

// DefaultStudyConfig mirrors the paper's protocol (30 s recordings at
// 250 Hz, correlations at 50 kHz).
func DefaultStudyConfig() StudyConfig { return study.DefaultConfig() }

// RunStudy executes the full evaluation protocol: 5 subjects x 3 positions
// x 4 injection frequencies, against the traditional thoracic reference.
func RunStudy(cfg StudyConfig) (*StudyResults, error) { return study.Run(cfg) }

// StudyFrequencies returns the paper's injected-current frequencies:
// 2, 10, 50 and 100 kHz.
func StudyFrequencies() []float64 { return bioimp.StudyFrequencies() }

// DefaultGate returns the per-beat quality-gate thresholds the device
// applies by default; Config.Gate overrides them. Every beat is gated.
func DefaultGate(fs float64) GateConfig { return quality.DefaultGate(fs) }

// NewEngine starts a multi-session serving engine for the device.
func NewEngine(dev *Device, cfg EngineConfig) *Engine { return session.NewEngine(dev, cfg) }

// DefaultEngineConfig returns the serving defaults (health eviction
// disabled; arm it via EngineConfig.Health).
func DefaultEngineConfig() EngineConfig { return session.DefaultConfig() }

// DefaultPMU returns the power-management policy used by the examples;
// call NewGovernor on it for hysteresis-stabilized mode decisions.
func DefaultPMU() PMU { return core.DefaultPMU() }

// NewEventBuffer returns a bounded ring sink retaining the newest
// capacity events (oldest dropped and counted).
func NewEventBuffer(capacity int) *EventBuffer { return event.NewBuffer(capacity) }

// NewEventChan returns a non-blocking channel sink with the given
// buffer depth.
func NewEventChan(depth int) *EventChan { return event.NewChan(depth) }
