package admission

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"qtag/internal/obs"
)

// Level is the WAL-directory free-space degradation level. Ordered:
// each level implies everything the previous one did.
type Level int32

const (
	// LevelOK — plenty of disk; no degradation.
	LevelOK Level = iota
	// LevelLow — free space under the low watermark: relax fsync to the
	// batch policy (fewer barriers, bounded loss window) to slow the
	// burn and shrink write amplification.
	LevelLow
	// LevelShed — free space under the shed watermark: stop admitting
	// new ingest (the controller browns the node out) while drains and
	// compaction get a chance to reclaim space.
	LevelShed
	// LevelReadOnly — critically low: refuse every write class; only
	// reads, health and metrics survive. The last stop before ENOSPC
	// corrupts the tail of the journal.
	LevelReadOnly
)

// String implements fmt.Stringer (metric label values).
func (l Level) String() string {
	switch l {
	case LevelOK:
		return "ok"
	case LevelLow:
		return "low"
	case LevelShed:
		return "shed"
	case LevelReadOnly:
		return "read-only"
	default:
		return fmt.Sprintf("level(%d)", int32(l))
	}
}

// ErrStatfsUnsupported is returned by the platform prober on systems
// without a statfs syscall binding; the watermark then stays at LevelOK.
var ErrStatfsUnsupported = errors.New("admission: statfs unsupported on this platform")

// WatermarkConfig configures the free-space monitor.
type WatermarkConfig struct {
	// Dir is the directory whose filesystem is monitored (the WAL dir).
	Dir string
	// LowBytes, ShedBytes, ReadOnlyBytes are free-space thresholds for
	// the corresponding levels; a zero threshold disables that level.
	// Must be ordered ReadOnlyBytes ≤ ShedBytes ≤ LowBytes where set.
	LowBytes      int64
	ShedBytes     int64
	ReadOnlyBytes int64
	// CheckEvery is the polling period for Start. Default 2s.
	CheckEvery time.Duration
	// Statfs probes free/total bytes for a directory; defaults to the
	// platform implementation. Injectable for tests and fault drills.
	Statfs func(dir string) (free, total int64, err error)
	// OnChange, when set, fires on every level transition (from the
	// polling goroutine or whichever caller ran Tick). Used to flip the
	// WAL fsync policy on LevelLow and restore it on the way back.
	OnChange func(from, to Level)
}

// Validate checks that the thresholds nest where more than one is set;
// otherwise some levels would be unreachable.
func (cfg WatermarkConfig) Validate() error {
	if cfg.ShedBytes > 0 && cfg.LowBytes > 0 && cfg.ShedBytes > cfg.LowBytes {
		return fmt.Errorf("admission: shed watermark %d above low watermark %d", cfg.ShedBytes, cfg.LowBytes)
	}
	if cfg.ReadOnlyBytes > 0 && cfg.ShedBytes > 0 && cfg.ReadOnlyBytes > cfg.ShedBytes {
		return fmt.Errorf("admission: read-only watermark %d above shed watermark %d", cfg.ReadOnlyBytes, cfg.ShedBytes)
	}
	if cfg.ReadOnlyBytes > 0 && cfg.LowBytes > 0 && cfg.ReadOnlyBytes > cfg.LowBytes {
		return fmt.Errorf("admission: read-only watermark %d above low watermark %d", cfg.ReadOnlyBytes, cfg.LowBytes)
	}
	return nil
}

// Watermark polls filesystem free space and maps it onto a degradation
// Level. Probe errors are counted and keep the previous level — a
// flapping statfs must not bounce the node in and out of read-only.
type Watermark struct {
	cfg WatermarkConfig

	level     atomic.Int32
	freeBytes atomic.Int64
	total     atomic.Int64
	checkErrs atomic.Int64

	mu       sync.Mutex // serializes Tick's read-compare-swap + OnChange
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewWatermark validates the thresholds and returns a monitor at
// LevelOK. Call Tick for a one-shot probe or Start for background
// polling.
func NewWatermark(cfg WatermarkConfig) (*Watermark, error) {
	if cfg.Dir == "" {
		return nil, errors.New("admission: watermark needs a directory")
	}
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = 2 * time.Second
	}
	if cfg.Statfs == nil {
		cfg.Statfs = platformStatfs
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Watermark{
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}, nil
}

// Tick probes free space once and returns the (possibly updated) level.
func (w *Watermark) Tick() Level {
	w.mu.Lock()
	defer w.mu.Unlock()
	free, total, err := w.cfg.Statfs(w.cfg.Dir)
	if err != nil {
		w.checkErrs.Add(1)
		return Level(w.level.Load())
	}
	w.freeBytes.Store(free)
	w.total.Store(total)
	next := LevelOK
	switch {
	case w.cfg.ReadOnlyBytes > 0 && free <= w.cfg.ReadOnlyBytes:
		next = LevelReadOnly
	case w.cfg.ShedBytes > 0 && free <= w.cfg.ShedBytes:
		next = LevelShed
	case w.cfg.LowBytes > 0 && free <= w.cfg.LowBytes:
		next = LevelLow
	}
	prev := Level(w.level.Swap(int32(next)))
	if prev != next && w.cfg.OnChange != nil {
		w.cfg.OnChange(prev, next)
	}
	return next
}

// Start launches the background poller. Close stops it.
func (w *Watermark) Start() {
	go func() {
		defer close(w.done)
		t := time.NewTicker(w.cfg.CheckEvery)
		defer t.Stop()
		w.Tick()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.Tick()
			}
		}
	}()
}

// Close stops the poller started by Start (safe to call without Start
// having run; safe to call twice).
func (w *Watermark) Close() {
	w.stopOnce.Do(func() { close(w.stop) })
	select {
	case <-w.done:
	default:
		// Start was never called; done will never close. Don't block.
		select {
		case <-w.done:
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// Level is the most recently probed degradation level.
func (w *Watermark) Level() Level { return Level(w.level.Load()) }

// FreeBytes is the most recently probed free-space figure.
func (w *Watermark) FreeBytes() int64 { return w.freeBytes.Load() }

// CheckErrors counts statfs probe failures.
func (w *Watermark) CheckErrors() int64 { return w.checkErrs.Load() }

// RegisterMetrics exposes the watermark state as qtag_watermark_*.
func (w *Watermark) RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	r.GaugeFunc("qtag_watermark_free_bytes", "Free bytes on the WAL filesystem at the last probe.",
		func() float64 { return float64(w.freeBytes.Load()) })
	r.GaugeFunc("qtag_watermark_total_bytes", "Total bytes on the WAL filesystem at the last probe.",
		func() float64 { return float64(w.total.Load()) })
	r.CounterFunc("qtag_watermark_check_errors_total", "Free-space probes that failed (level held).",
		w.checkErrs.Load)
	for _, lvl := range []Level{LevelOK, LevelLow, LevelShed, LevelReadOnly} {
		lvl := lvl
		r.GaugeFunc("qtag_watermark_level", "Current free-space degradation level (1 on the active level).",
			func() float64 {
				if Level(w.level.Load()) == lvl {
					return 1
				}
				return 0
			}, obs.Label{Name: "level", Value: lvl.String()})
	}
}
