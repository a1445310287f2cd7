package qtag

import (
	"fmt"
	"sync"
	"time"

	"qtag/internal/adtag"
	"qtag/internal/beacon"
	"qtag/internal/browser"
	"qtag/internal/dom"
	"qtag/internal/geom"
	"qtag/internal/obs"
	"qtag/internal/viewability"
)

// DefaultPixelCount is the paper's recommended pixel count (§4.1: "25
// pixels seem to be a good trade-off").
const DefaultPixelCount = 25

// DefaultFPSThreshold is the paper's conservative visibility threshold:
// pixels refreshing at ≥ 20 fps are considered visible (§3).
const DefaultFPSThreshold = 20.0

// DefaultSampleInterval is how often the tag evaluates pixel refresh rates
// and the viewability condition.
const DefaultSampleInterval = 100 * time.Millisecond

// Config tunes a Q-Tag instance. The zero value selects the paper's
// defaults (25-pixel X layout, 20 fps threshold, rectangle-inference
// area estimation).
type Config struct {
	// Layout is the monitoring-pixel arrangement.
	Layout Layout
	// PixelCount is the number of monitoring pixels (default 25).
	PixelCount int
	// FPSThreshold is the refresh rate at or above which a pixel is
	// classified visible (default 20).
	FPSThreshold float64
	// SampleInterval is the evaluation period (default 100 ms).
	SampleInterval time.Duration
	// Method selects the area estimator (default rectangle inference).
	Method Method
	// Criteria overrides the viewability criteria; when nil they derive
	// from the impression's ad format per the IAB/MRC standard.
	Criteria *viewability.Criteria
}

func (c Config) withDefaults() Config {
	if c.PixelCount == 0 {
		c.PixelCount = DefaultPixelCount
	}
	if c.FPSThreshold == 0 {
		c.FPSThreshold = DefaultFPSThreshold
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = DefaultSampleInterval
	}
	return c
}

// Tag is the Q-Tag measurement solution. It implements adtag.Tag. A Tag
// may deploy into many impressions, concurrently.
type Tag struct {
	cfg Config

	mu    sync.Mutex
	grids map[geom.Size]*grid
}

// grid is the pixel layout and area estimator for one creative size; both
// are read-only once built, so deployments share them.
type grid struct {
	points []geom.Point
	est    *AreaEstimator
}

// New returns a Q-Tag with the given configuration.
func New(cfg Config) *Tag { return &Tag{cfg: cfg.withDefaults()} }

// Name implements adtag.Tag.
func (t *Tag) Name() string { return string(beacon.SourceQTag) }

// grid returns the cached layout for a creative size, building it on first
// use.
func (t *Tag) grid(size geom.Size) *grid {
	t.mu.Lock()
	defer t.mu.Unlock()
	g := t.grids[size]
	if g == nil {
		points := Points(t.cfg.Layout, t.cfg.PixelCount, size)
		g = &grid{points: points, est: NewAreaEstimator(points, size, t.cfg.Method)}
		if t.grids == nil {
			t.grids = make(map[geom.Size]*grid)
		}
		t.grids[size] = g
	}
	return g
}

// Deploy implements adtag.Tag: it plants the monitoring pixels, starts
// counting their paints, and runs the viewability state machine until the
// criteria are met (in-view beacon) and subsequently lost (out-of-view
// beacon).
//
// Deploy sends the loaded beacon — the signal that lets the monitoring
// server count this impression as *measured* — only after the pixel
// paint set attaches successfully. In an environment without frame
// callbacks the tag cannot measure, returns an error, and the impression
// stays unmeasured.
func (t *Tag) Deploy(rt *adtag.Runtime) error {
	size := rt.CreativeSize()
	d := &deployment{
		tag:      t,
		rt:       rt,
		size:     size,
		criteria: t.criteria(rt),
	}
	// Attach the paint set to the monitoring pixels before declaring the
	// impression measured.
	if err := d.plant(t.grid(size)); err != nil {
		return err
	}
	if rt.Tracing() {
		rt.Trace(obs.StageClassified, fmt.Sprintf("pixels=%d fps>=%g", len(d.pixels), t.cfg.FPSThreshold))
	}
	if err := rt.SendBeacon(beacon.SourceQTag, beacon.EventLoaded, 0); err != nil {
		return fmt.Errorf("qtag: loaded beacon: %w", err)
	}
	d.ticker = rt.Every(t.cfg.SampleInterval, d.sample)
	return nil
}

func (t *Tag) criteria(rt *adtag.Runtime) viewability.Criteria {
	if t.cfg.Criteria != nil {
		return *t.cfg.Criteria
	}
	return viewability.StandardCriteria(rt.Impression().Format)
}

// deployment is the per-impression state machine.
type deployment struct {
	tag      *Tag
	rt       *adtag.Runtime
	size     geom.Size
	grid     *grid
	criteria viewability.Criteria

	pixels []*dom.Element
	paints *browser.PaintSet
	// prev holds the paint counts at the previous sample; a pixel's
	// paints in the window are its count now minus prev.
	prev []int
	// visible is the per-pixel classification of the last sample, frac
	// its area estimate (valid once estimated is set); the estimate only
	// reruns when the classification changes.
	visible   []bool
	frac      float64
	estimated bool

	inRun      bool
	runStart   time.Duration
	inViewSent bool
	outSent    bool
	ticker     interface{ Stop() }
}

// plant creates the monitoring pixels of a grid and attaches one paint set
// to them.
func (d *deployment) plant(g *grid) error {
	d.grid = g
	d.pixels = d.rt.CreatePixels(g.points)
	paints, err := d.rt.ObservePixels(d.pixels)
	if err != nil {
		return fmt.Errorf("qtag: deploy pixels: %w", err)
	}
	d.paints = paints
	n := len(d.pixels)
	if cap(d.prev) < n {
		d.prev = make([]int, n)
		d.visible = make([]bool, n)
	}
	d.prev = d.prev[:n]
	clear(d.prev)
	d.visible = d.visible[:n]
	d.estimated = false
	return nil
}

// replant handles responsive creatives: when the creative box changes
// size the old pixel grid measures stale geometry (a shrunken creative
// would clip its own pixels and read as out of view), so the tag retires
// the old pixels and lays out a fresh grid for the new box. The dwell
// run restarts — visibility across the relayout cannot be certified.
func (d *deployment) replant(size geom.Size) {
	d.paints.Cancel()
	for _, px := range d.pixels {
		px.SetHidden(true)
	}
	d.size = size
	// plant cannot fail here: frame-callback support was proven at deploy.
	_ = d.plant(d.tag.grid(size))
	d.inRun = false
}

// sample runs once per SampleInterval: estimate per-pixel fps from the
// paints in the window that just closed, classify visibility against the
// fps threshold, estimate the visible area, and advance the viewability
// state machine.
func (d *deployment) sample() {
	if cur := d.rt.CreativeSize(); cur != d.size {
		d.replant(cur)
		return // counts from the old grid are meaningless this round
	}
	secs := d.tag.cfg.SampleInterval.Seconds()
	changed := !d.estimated
	for i, prev := range d.prev {
		c := d.paints.Count(i)
		d.prev[i] = c
		fps := float64(c-prev) / secs
		if v := fps >= d.tag.cfg.FPSThreshold; v != d.visible[i] {
			d.visible[i] = v
			changed = true
		}
	}
	if changed {
		d.frac = d.grid.est.Estimate(d.visible)
		d.estimated = true
	}
	now := d.rt.Now()

	if d.frac >= d.criteria.AreaFraction {
		if !d.inRun {
			d.inRun = true
			// The condition held throughout the sample window that just
			// closed (that is what the fps counts certify), so the run
			// starts at the window's opening boundary.
			d.runStart = now - d.tag.cfg.SampleInterval
		}
		if !d.inViewSent && now-d.runStart >= d.criteria.Dwell {
			d.inViewSent = true
			_ = d.rt.SendBeacon(beacon.SourceQTag, beacon.EventInView, 0)
		}
		return
	}

	d.inRun = false
	if d.inViewSent && !d.outSent {
		d.outSent = true
		_ = d.rt.SendBeacon(beacon.SourceQTag, beacon.EventOutOfView, 0)
		// Measurement complete: in-view and out-of-view both recorded.
		d.ticker.Stop()
	}
}

// EstimateVisibleFraction is a convenience for tests and the §4.1
// evaluation: the estimated visible fraction for a creative of the given
// size clipped to clip, using cfg's layout parameters.
func EstimateVisibleFraction(cfg Config, size geom.Size, clip geom.Rect) float64 {
	cfg = cfg.withDefaults()
	points := Points(cfg.Layout, cfg.PixelCount, size)
	est := NewAreaEstimator(points, size, cfg.Method)
	return est.EstimateClip(clip)
}
