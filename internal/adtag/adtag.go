// Package adtag provides the runtime an ad tag executes in.
//
// An ad tag is a script a vendor ships inside the creative's iframe (§3).
// Because that iframe is usually cross-origin, the script's view of the
// world is narrow, and this package models exactly that capability
// surface:
//
//   - timers (setTimeout/setInterval equivalents on the virtual clock),
//   - paint counts of elements it creates inside its own iframe (the
//     requestAnimationFrame-style facility Q-Tag builds on),
//   - beacon transport to a collection server,
//   - a SOP-guarded geometry API (fails with dom.ErrCrossOrigin across
//     frame boundaries), and
//   - an IntersectionObserver-style cross-origin visibility API that is
//     only present when the environment supports it.
//
// Q-Tag (internal/qtag) uses only the first three. The commercial
// baseline (internal/commercial) needs the last two, which is what limits
// its measured rate.
package adtag

import (
	"errors"
	"fmt"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/browser"
	"qtag/internal/dom"
	"qtag/internal/geom"
	"qtag/internal/obs"
	"qtag/internal/simclock"
	"qtag/internal/viewability"
)

// ErrNoIntersectionObserver is returned by IntersectionRatio in
// environments without a cross-origin visibility API.
var ErrNoIntersectionObserver = errors.New("adtag: IntersectionObserver not supported in this environment")

// ErrNoFrameCallbacks is returned by ObservePixels in environments
// without frame callbacks.
var ErrNoFrameCallbacks = errors.New("adtag: frame callbacks not supported in this environment")

// Impression identifies the ad impression a tag instance is measuring.
type Impression struct {
	// ID is the impression's unique identifier within its campaign.
	ID string
	// CampaignID is the campaign the impression belongs to.
	CampaignID string
	// Format is the ad format, which selects the viewability criteria.
	Format viewability.Format
	// Meta carries slicing attributes copied onto every beacon.
	Meta beacon.Meta
}

// Tag is a deployable measurement script.
type Tag interface {
	// Name identifies the solution ("qtag", "commercial", ...).
	Name() string
	// Deploy starts the tag inside the given runtime. The tag keeps
	// running via runtime timers/callbacks until the page dies.
	Deploy(rt *Runtime) error
}

// Runtime is the capability surface handed to a Tag. One Runtime instance
// corresponds to one tag execution inside one creative iframe.
type Runtime struct {
	page       *browser.Page
	creative   *dom.Element
	clock      *simclock.Clock
	sink       beacon.Sink
	impression Impression
	tracer     *obs.LifecycleTracer

	paints []*browser.PaintSet
	timers []*simclock.Timer
	closed bool
}

// NewRuntime wires a tag runtime to a creative element on a page. The
// sink receives the tag's beacons.
func NewRuntime(page *browser.Page, creative *dom.Element, sink beacon.Sink, imp Impression) *Runtime {
	return &Runtime{
		page:       page,
		creative:   creative,
		clock:      page.Tab().Window().Browser().Clock(),
		sink:       sink,
		impression: imp,
	}
}

// Impression returns the impression this runtime is measuring.
func (rt *Runtime) Impression() Impression { return rt.impression }

// SetTracer attaches a lifecycle tracer; subsequent Trace calls record
// spans for this impression. A nil tracer disables tracing (the default).
func (rt *Runtime) SetTracer(t *obs.LifecycleTracer) { rt.tracer = t }

// Trace records a lifecycle span for this impression at the current
// virtual time. It is a no-op without an attached tracer, so tags can
// call it unconditionally.
func (rt *Runtime) Trace(stage obs.Stage, detail string) {
	if rt.tracer == nil {
		return
	}
	rt.tracer.Record(rt.impression.ID, rt.impression.CampaignID, stage,
		simclock.Epoch.Add(rt.clock.Now()), detail)
}

// Tracing reports whether a tracer is attached, so tags can skip building
// span details nobody records.
func (rt *Runtime) Tracing() bool { return rt.tracer != nil }

// Now returns the current virtual time.
func (rt *Runtime) Now() time.Duration { return rt.clock.Now() }

// CreativeSize returns the size of the creative's box — a tag can always
// measure its own iframe.
func (rt *Runtime) CreativeSize() geom.Size {
	r := rt.creative.Rect()
	return geom.Size{W: r.W, H: r.H}
}

// AfterFunc schedules fn once, d from now (setTimeout).
func (rt *Runtime) AfterFunc(d time.Duration, fn func()) *simclock.Timer {
	t := rt.clock.AfterFunc(d, fn)
	rt.timers = append(rt.timers, t)
	return t
}

// Every schedules fn periodically (setInterval).
func (rt *Runtime) Every(d time.Duration, fn func()) *simclock.Timer {
	t := rt.clock.Every(d, fn)
	rt.timers = append(rt.timers, t)
	return t
}

// CreatePixel inserts a 1×1 monitoring pixel element inside the creative
// at the given position (in creative-local coordinates) and returns it.
// Positions on the right/bottom edges are inset so the whole pixel stays
// inside the creative box — a pixel hanging past its iframe would be
// clipped and never paint, biasing the measurement.
func (rt *Runtime) CreatePixel(at geom.Point) *dom.Element {
	local := rt.creative.Rect()
	x := geom.Clamp(at.X, 0, local.W-1)
	y := geom.Clamp(at.Y, 0, local.H-1)
	return rt.creative.AppendChild("monitor-pixel",
		geom.Rect{X: local.X + x, Y: local.Y + y, W: 1, H: 1})
}

// CreatePixels creates one monitoring pixel per point, as CreatePixel
// does, and returns them in order.
func (rt *Runtime) CreatePixels(points []geom.Point) []*dom.Element {
	rt.creative.GrowChildren(len(points))
	pxs := make([]*dom.Element, len(points))
	for i, p := range points {
		pxs[i] = rt.CreatePixel(p)
	}
	return pxs
}

// ObservePixels starts counting the paints of monitoring pixels in one
// paint set, which keeps the slice. This is the rAF/paint-timing
// facility; it fails in environments whose profile lacks frame
// callbacks.
func (rt *Runtime) ObservePixels(pxs []*dom.Element) (*browser.PaintSet, error) {
	if !rt.page.Tab().Window().Browser().Profile().SupportsFrameCallbacks {
		return nil, ErrNoFrameCallbacks
	}
	ps := rt.page.ObservePaints(pxs...)
	rt.paints = append(rt.paints, ps)
	return ps, nil
}

// SendBeacon emits an event to the monitoring server, filling in the
// impression identity, metadata and timestamp. Only the Type and Seq
// fields of the template are honoured; Source must be set by the caller
// (each tag knows its own name).
func (rt *Runtime) SendBeacon(src beacon.Source, typ beacon.EventType, seq int) error {
	return rt.sink.Submit(beacon.Event{
		ImpressionID: rt.impression.ID,
		CampaignID:   rt.impression.CampaignID,
		Source:       src,
		Type:         typ,
		Seq:          seq,
		At:           simclock.Epoch.Add(rt.clock.Now()),
		Meta:         rt.impression.Meta,
	})
}

// BoundingRectInTop is the SOP-guarded geometry API: the creative's box in
// top-document content coordinates, or dom.ErrCrossOrigin when any frame
// boundary on the path is cross-origin (the common case for ad iframes).
func (rt *Runtime) BoundingRectInTop() (geom.Rect, error) {
	return rt.creative.BoundingRectInTop()
}

// ViewportInfo returns the top window's viewport rectangle in content
// coordinates. Like BoundingRectInTop it is SOP-guarded: a cross-origin
// frame cannot read the top window's scroll position or size.
func (rt *Runtime) ViewportInfo() (geom.Rect, error) {
	if !rt.creative.Document().SameOriginWithTop() {
		return geom.Rect{}, dom.ErrCrossOrigin
	}
	return rt.page.ViewportRectInContent(), nil
}

// IntersectionRatio returns the creative's true exposed fraction via the
// environment's IntersectionObserver-style API. Unlike the geometry API it
// works across origins — but only where the environment provides it.
func (rt *Runtime) IntersectionRatio() (float64, error) {
	if !rt.page.Tab().Window().Browser().Profile().SupportsIntersectionObserver {
		return 0, ErrNoIntersectionObserver
	}
	return rt.page.TrueVisibleFraction(rt.creative), nil
}

// PageHidden models the Page Visibility API: it reports true when the
// tag's tab is not the active tab. Unlike the compositor, it knows
// nothing about window occlusion or off-screen positions — a documented
// blind spot of geometry-polling verifiers.
func (rt *Runtime) PageHidden() bool {
	return !rt.page.Tab().Active()
}

// Profile exposes the environment description for capability checks.
func (rt *Runtime) Profile() browser.Profile {
	return rt.page.Tab().Window().Browser().Profile()
}

// Close tears the tag down: cancels paint sets and timers. Used when a
// session ends.
func (rt *Runtime) Close() {
	if rt.closed {
		return
	}
	rt.closed = true
	for _, ps := range rt.paints {
		ps.Cancel()
	}
	for _, t := range rt.timers {
		t.Stop()
	}
}

// String implements fmt.Stringer.
func (rt *Runtime) String() string {
	return fmt.Sprintf("Runtime(imp=%s camp=%s %v)", rt.impression.ID, rt.impression.CampaignID, rt.CreativeSize())
}
