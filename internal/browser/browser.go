// Package browser simulates the browsing environments Q-Tag runs in.
//
// It models the pieces of a browser that matter to viewability
// measurement: windows positioned on a screen, tabs of which one is
// active, pages with a scrollable viewport over a DOM (package dom), and —
// crucially — a compositor that paints content at the device refresh rate
// *only while that content is actually renderable*. Content that is
// scrolled out of the viewport, in a background tab, in an off-screen or
// occluded window, or display:none is not painted (or only on a heavily
// throttled trickle, per the profile's HiddenFPS), which is the physical
// signal Q-Tag's refresh-rate technique measures (§3 of the paper).
//
// The whole simulation runs on a virtual clock (package simclock); a
// multi-second browsing session executes in microseconds of real time and
// is fully deterministic. Frames are counted, not run: a PaintSet's
// counts advance in closed form between layout changes, exactly as the
// per-frame reference compositor would advance them.
package browser

import (
	"fmt"
	"time"

	"qtag/internal/geom"
	"qtag/internal/simclock"
)

// Browser is one simulated browser instance on a device.
type Browser struct {
	clock   *simclock.Clock
	profile Profile
	screen  geom.Size
	windows []*Window

	cpuLoad float64 // 0 (idle) .. <1 (saturated)

	// The compositor frame loop: a counted ticker, or — with
	// Options.PerFrameCompositor — a periodic callback running frame().
	frames      *simclock.Ticks
	frameTicker *simclock.Timer
	perFrame    bool
	// frameBase is the number of frames of retired tickers (the loop is
	// re-armed on every CPU-load change); frameSeq counts frames in
	// per-frame mode. Either way the frame sequence is global and
	// monotonic, which is what the HiddenFPS trickle is keyed on.
	frameBase uint64
	frameSeq  uint64

	// layoutEpoch is bumped by every mutation that can change whether any
	// point is renderable (scroll, resize, move, tab switch, occlusion,
	// visibility toggles). Paint sets cache their renderability per epoch.
	layoutEpoch uint64

	// adBlockExtension models an installed content blocker (Adblock
	// Plus); Brave-style built-in blocking lives on the Profile.
	adBlockExtension bool
}

// SetAdBlockExtension installs or removes an Adblock-Plus-style extension
// (§4.3). Extensions block third-party ad connections before any delivery
// happens.
func (b *Browser) SetAdBlockExtension(enabled bool) { b.adBlockExtension = enabled }

// BlocksAds reports whether ad delivery is blocked, either by an installed
// extension or by the profile's built-in blocker (Brave).
func (b *Browser) BlocksAds() bool {
	return b.adBlockExtension || b.profile.BuiltinAdBlock
}

// Options configures a new Browser.
type Options struct {
	// Profile is the browsing environment; required.
	Profile Profile
	// Screen is the physical screen size in CSS pixels. Defaults to
	// 1920×1080 for desktop profiles and 412×869 for mobile ones.
	Screen geom.Size
	// PerFrameCompositor is for tests only: it runs the reference
	// compositor, one clock callback per frame that increments each
	// renderable pixel's count, instead of counting frames in closed
	// form. Both produce identical counts at every instant (DESIGN.md
	// §17); the reference exists to prove it.
	PerFrameCompositor bool
}

// New creates a browser on the given virtual clock and starts its
// compositor frame loop.
func New(clock *simclock.Clock, opts Options) *Browser {
	screen := opts.Screen
	if screen.W == 0 || screen.H == 0 {
		if opts.Profile.Device == Mobile {
			screen = geom.Size{W: 412, H: 869}
		} else {
			screen = geom.Size{W: 1920, H: 1080}
		}
	}
	b := &Browser{clock: clock, profile: opts.Profile, screen: screen, perFrame: opts.PerFrameCompositor}
	b.armFrameLoop()
	return b
}

// Clock returns the virtual clock driving this browser.
func (b *Browser) Clock() *simclock.Clock { return b.clock }

// Profile returns the browsing environment description.
func (b *Browser) Profile() Profile { return b.profile }

// Screen returns the screen size.
func (b *Browser) Screen() geom.Size { return b.screen }

// EffectiveRefreshRate returns the compositor rate after CPU-load
// degradation: rate × (1 − load).
func (b *Browser) EffectiveRefreshRate() float64 {
	return b.profile.RefreshRate * (1 - b.cpuLoad)
}

// SetCPULoad sets the CPU saturation in [0, 0.95]; the paper's threshold
// discussion (§3) hinges on loaded devices refreshing below 60 fps. The
// frame loop is re-armed at the degraded rate.
func (b *Browser) SetCPULoad(load float64) {
	b.settle() // frames so far trickled at the old ratio
	b.cpuLoad = geom.Clamp(load, 0, 0.95)
	b.armFrameLoop()
	b.InvalidateLayout()
}

// CPULoad returns the current CPU saturation.
func (b *Browser) CPULoad() float64 { return b.cpuLoad }

// Close stops the compositor loop; paint counts keep their final values.
// The browser must not be used after Close.
func (b *Browser) Close() { b.stopFrameLoop() }

func (b *Browser) armFrameLoop() {
	b.stopFrameLoop()
	rate := b.EffectiveRefreshRate()
	if rate <= 0 {
		return
	}
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	if b.perFrame {
		b.frameTicker = b.clock.Every(interval, b.frame)
	} else {
		b.frames = b.clock.NewTicks(interval)
	}
}

func (b *Browser) stopFrameLoop() {
	if b.frameTicker != nil {
		b.frameTicker.Stop()
		b.frameTicker = nil
	}
	if b.frames != nil {
		b.frameBase += b.frames.Count()
		b.frames.Stop()
		b.frames = nil
	}
}

// frameCount is the global frame sequence number of the latest frame.
func (b *Browser) frameCount() uint64 {
	if b.perFrame {
		return b.frameSeq
	}
	n := b.frameBase
	if b.frames != nil {
		n += b.frames.Count()
	}
	return n
}

// hiddenEvery returns the HiddenFPS trickle period in frames: content that
// is not renderable is painted on frames whose sequence number is a
// multiple of it. Zero means no trickle.
func (b *Browser) hiddenEvery() uint64 {
	if b.profile.HiddenFPS <= 0 {
		return 0
	}
	ratio := b.EffectiveRefreshRate() / b.profile.HiddenFPS
	if ratio < 1 {
		ratio = 1
	}
	return uint64(ratio)
}

// frame is one tick of the reference (per-frame) compositor: every pixel
// of every paint set is painted if it is renderable right now, or on the
// throttled HiddenFPS trickle if not. Renderability is revalidated lazily,
// on the first frame after a layout change.
func (b *Browser) frame() {
	b.frameSeq++
	he := b.hiddenEvery()
	trickle := he > 0 && b.frameSeq%he == 0
	b.eachPaintSet(func(s *PaintSet) {
		if s.epoch != b.layoutEpoch {
			s.revalidate()
		}
		for i := range s.counts {
			if s.renderable[i] || trickle {
				s.counts[i]++
			}
		}
	})
}

// settle brings every live paint set's counts up to the current frame.
func (b *Browser) settle() { b.eachPaintSet((*PaintSet).settle) }

// eachPaintSet calls fn for every live paint set of every page shown in a
// tab.
func (b *Browser) eachPaintSet(fn func(*PaintSet)) {
	for _, w := range b.windows {
		for _, tab := range w.tabs {
			if pg := tab.page; pg != nil {
				for _, s := range pg.paints {
					fn(s)
				}
			}
		}
	}
}

// InvalidateLayout records that renderability may have changed. Browser-
// level mutators call it automatically; call it manually after mutating
// DOM geometry directly (dom.Element.SetRect etc.) — paint counts are only
// exact under that contract.
//
// The counted compositor settles every paint set with the renderability
// that held since the previous invalidation, then recomputes it for the
// new layout. The reference compositor only bumps the epoch and
// revalidates on its next frame.
func (b *Browser) InvalidateLayout() {
	b.layoutEpoch++
	if b.perFrame {
		return
	}
	b.eachPaintSet(func(s *PaintSet) {
		s.settle()
		s.revalidate()
	})
}

// LayoutEpoch returns a counter that changes on every InvalidateLayout:
// anything derived from page geometry stays valid while it is unchanged.
func (b *Browser) LayoutEpoch() uint64 { return b.layoutEpoch }

// OpenWindow creates a window at the given screen position and viewport
// size, with one empty tab, and returns it. The first window opened is
// focused.
func (b *Browser) OpenWindow(pos geom.Point, size geom.Size) *Window {
	w := &Window{browser: b, pos: pos, size: size, onScreenOverride: true}
	w.focused = len(b.windows) == 0
	tab := &Tab{window: w}
	w.tabs = []*Tab{tab}
	w.active = 0
	b.windows = append(b.windows, w)
	b.InvalidateLayout()
	return w
}

// Windows returns the open windows in creation order.
func (b *Browser) Windows() []*Window { return b.windows }

// String implements fmt.Stringer.
func (b *Browser) String() string {
	return fmt.Sprintf("Browser(%s, %d windows, %.0ffps)", b.profile.Name, len(b.windows), b.EffectiveRefreshRate())
}
