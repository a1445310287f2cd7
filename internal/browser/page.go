package browser

import (
	"qtag/internal/dom"
	"qtag/internal/geom"
)

// Page is a document loaded in a tab, together with its viewport scroll
// state and its live paint sets.
type Page struct {
	tab    *Tab
	doc    *dom.Document
	paints []*PaintSet
}

// Tab returns the tab displaying this page.
func (p *Page) Tab() *Tab { return p.tab }

// Document returns the page's top-level document.
func (p *Page) Document() *dom.Document { return p.doc }

// Viewport returns the viewport size (the window's content size).
func (p *Page) Viewport() geom.Size { return p.tab.window.size }

// Scroll returns the current scroll offset of the top document.
func (p *Page) Scroll() geom.Point { return p.doc.Scroll() }

// ScrollTo scrolls the top document, clamping to the scrollable range
// (certification test 5 scrolls the ad out of the viewport).
func (p *Page) ScrollTo(offset geom.Point) {
	p.doc.SetScroll(offset)
	p.clampScroll()
	p.tab.window.browser.InvalidateLayout()
}

func (p *Page) clampScroll() {
	content := p.doc.Size()
	vp := p.Viewport()
	maxX := content.W - vp.W
	if maxX < 0 {
		maxX = 0
	}
	maxY := content.H - vp.H
	if maxY < 0 {
		maxY = 0
	}
	s := p.doc.Scroll()
	p.doc.SetScroll(geom.Point{X: geom.Clamp(s.X, 0, maxX), Y: geom.Clamp(s.Y, 0, maxY)})
}

// ViewportRectInContent returns the viewport window expressed in
// top-document content coordinates.
func (p *Page) ViewportRectInContent() geom.Rect {
	s := p.doc.Scroll()
	vp := p.Viewport()
	return geom.Rect{X: s.X, Y: s.Y, W: vp.W, H: vp.H}
}

// rendering reports whether the page renders at all: its tab is active and
// its window is neither obscured nor fully off-screen.
func (p *Page) rendering() bool {
	if !p.tab.Active() {
		return false
	}
	w := p.tab.window
	if w.obscured {
		return false
	}
	return !w.OnScreenRegion().Empty()
}

// TrueVisibleFraction returns the exact fraction of the element's area
// currently exposed to the user, accounting for frame clipping, page
// scroll, the viewport, window screen position, window occlusion and tab
// state. This is compositor ground truth (used by the oracle and by
// intersection-observer-capable verifier tags); it is not subject to SOP.
func (p *Page) TrueVisibleFraction(el *dom.Element) float64 {
	if el.EffectivelyHidden() || !p.rendering() {
		return 0
	}
	area := el.Rect().Area()
	if area == 0 {
		return 0
	}
	visible := el.AbsoluteVisibleRect() // clipped by ancestor frames, content coords
	if visible.Empty() {
		return 0
	}
	// Content → viewport coordinates.
	s := p.doc.Scroll()
	visible = visible.Translate(-s.X, -s.Y)
	vp := p.Viewport()
	visible = visible.Intersect(geom.Rect{W: vp.W, H: vp.H})
	if visible.Empty() {
		return 0
	}
	// Clip by the on-screen part of the window.
	visible = visible.Intersect(p.tab.window.OnScreenRegion())
	return visible.Area() / area
}

// PointVisible reports whether a specific point of an element (given in
// the element's own document content coordinates) is currently exposed.
func (p *Page) PointVisible(el *dom.Element, pt geom.Point) bool {
	if el.EffectivelyHidden() || !p.rendering() {
		return false
	}
	// The point must survive clipping by each ancestor frame viewport.
	if !pointVisibleThroughFrames(el, pt) {
		return false
	}
	abs := el.AbsolutePoint(pt)
	s := p.doc.Scroll()
	vpPt := geom.Point{X: abs.X - s.X, Y: abs.Y - s.Y}
	vp := p.Viewport()
	if !(geom.Rect{W: vp.W, H: vp.H}).Contains(vpPt) {
		return false
	}
	return p.tab.window.OnScreenRegion().Contains(vpPt)
}

// pointVisibleThroughFrames walks the frame chain checking the point
// against each intermediate frame viewport.
func pointVisibleThroughFrames(el *dom.Element, pt geom.Point) bool {
	x, y := pt.X, pt.Y
	for d := el.Document(); d.HostFrame() != nil; d = d.HostFrame().Document() {
		host := d.HostFrame()
		sc := d.Scroll()
		clip := geom.Rect{X: sc.X, Y: sc.Y, W: host.Rect().W, H: host.Rect().H}
		if !clip.Contains(geom.Point{X: x, Y: y}) {
			return false
		}
		x += host.Rect().X - sc.X
		y += host.Rect().Y - sc.Y
	}
	return true
}

// PaintSet counts, for each of its elements, the compositor frames that
// painted it: every frame while the center of the element's box is
// renderable, plus the profile's HiddenFPS trickle while it is not. This
// is the simulated equivalent of animating elements (typically 1×1
// monitoring pixels) and observing their paint/refresh rate, the core
// mechanism of the paper's §3.
//
// Counts are advanced in closed form: renderability is cached per
// element, recomputed at registration and at every
// Browser.InvalidateLayout, and the frames since the last settlement are
// credited at invalidation, CPU-load change, Cancel and read.
type PaintSet struct {
	page       *Page
	b          *Browser
	els        []*dom.Element
	counts     []int
	renderable []bool
	epoch      uint64 // layout epoch renderable was computed at
	settled    uint64 // frame sequence number counts include
	cancelled  bool
}

// ObservePaints registers a paint set over the given elements; the set
// keeps the slice, which must not be modified afterwards. Counts start at
// zero.
func (p *Page) ObservePaints(els ...*dom.Element) *PaintSet {
	b := p.browser()
	s := &PaintSet{
		page:       p,
		b:          b,
		els:        els,
		counts:     make([]int, len(els)),
		renderable: make([]bool, len(els)),
		settled:    b.frameCount(),
	}
	if b.perFrame {
		// The reference compositor revalidates on its first frame.
		s.epoch = b.layoutEpoch - 1
	} else {
		s.revalidate()
	}
	p.paints = append(p.paints, s)
	return s
}

// Len returns the number of observed elements.
func (s *PaintSet) Len() int { return len(s.els) }

// Count returns the paints of the i-th element since registration.
func (s *PaintSet) Count(i int) int {
	s.settle()
	return s.counts[i]
}

// Cancel detaches the set: its counts stop advancing.
func (s *PaintSet) Cancel() {
	if s.cancelled {
		return
	}
	s.settle()
	s.cancelled = true
	p := s.page
	for i, x := range p.paints {
		if x == s {
			p.paints = append(p.paints[:i], p.paints[i+1:]...)
			break
		}
	}
}

// settle credits the frames since the last settlement: all of them to
// renderable elements, the trickle frames among them to the others.
// Renderability cannot have changed in between, since every layout change
// settles first. The reference compositor counts per frame instead.
func (s *PaintSet) settle() {
	b := s.b
	if b.perFrame || s.cancelled {
		return
	}
	now := b.frameCount()
	if now == s.settled {
		return
	}
	frames := int(now - s.settled)
	var trickle int
	if he := b.hiddenEvery(); he > 0 {
		trickle = int(now/he - s.settled/he)
	}
	for i, r := range s.renderable {
		if r {
			s.counts[i] += frames
		} else {
			s.counts[i] += trickle
		}
	}
	s.settled = now
}

// revalidate recomputes every element's renderability for the current
// layout.
func (s *PaintSet) revalidate() {
	for i, el := range s.els {
		s.renderable[i] = s.page.PointVisible(el, el.Rect().Center())
	}
	s.epoch = s.b.layoutEpoch
}

// detach settles and cancels every paint set when the page leaves its tab.
func (p *Page) detach() {
	for _, s := range p.paints {
		s.settle()
		s.cancelled = true
	}
	p.paints = nil
}

func (p *Page) browser() *Browser { return p.tab.window.browser }
