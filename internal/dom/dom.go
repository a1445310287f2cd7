// Package dom implements the minimal document object model the Q-Tag
// simulator needs: documents with element trees, nested iframes that may
// belong to different origins, and a Same-Origin-Policy-guarded geometry
// API.
//
// The model captures exactly the structural facts the paper's technique
// depends on:
//
//   - Ads are delivered inside (often doubly) nested cross-domain iframes
//     (§3, §4.2 footnote 2).
//   - A script inside a cross-domain iframe cannot learn its position in
//     the top-level viewport because SOP denies it access to ancestor
//     browsing contexts (§3). The compositor, in contrast, always knows
//     true geometry; package render consumes the unguarded accessors.
//
// Coordinates: every element's Rect is expressed in its own document's
// content coordinate space. Conversion to the top document's content space
// (and clipping by each intermediate iframe viewport) is provided by
// AbsoluteRect / AbsoluteVisibleRect.
package dom

import (
	"errors"
	"fmt"
	"slices"

	"qtag/internal/geom"
)

// Origin is a web origin in the scheme://host sense. Two documents are
// same-origin exactly when their Origin values are equal.
type Origin string

// ErrCrossOrigin is returned by SOP-guarded APIs when a frame boundary on
// the path to the top document belongs to a different origin.
var ErrCrossOrigin = errors.New("dom: cross-origin access denied by same-origin policy")

// Document is one browsing context: the top-level page or the content
// document of an iframe.
type Document struct {
	origin    Origin
	size      geom.Size
	scroll    geom.Point
	root      *Element
	hostFrame *Element // the iframe element embedding this document; nil at top
	nextID    int
}

// NewDocument creates a top-level document with the given origin and
// content size.
func NewDocument(origin Origin, size geom.Size) *Document {
	d := &Document{origin: origin, size: size}
	d.root = &Element{doc: d, tag: "body", rect: geom.Rect{W: size.W, H: size.H}, id: d.allocID()}
	return d
}

func (d *Document) allocID() int {
	d.nextID++
	return d.nextID
}

// Origin returns the document's origin.
func (d *Document) Origin() Origin { return d.origin }

// Size returns the document's content size.
func (d *Document) Size() geom.Size { return d.size }

// Root returns the document's root (body) element.
func (d *Document) Root() *Element { return d.root }

// HostFrame returns the iframe element embedding this document, or nil for
// the top-level document.
func (d *Document) HostFrame() *Element { return d.hostFrame }

// IsTop reports whether this is the top-level document.
func (d *Document) IsTop() bool { return d.hostFrame == nil }

// Top returns the top-level document of the frame tree.
func (d *Document) Top() *Document {
	t := d
	for t.hostFrame != nil {
		t = t.hostFrame.doc
	}
	return t
}

// Depth returns the number of frame boundaries between this document and
// the top (0 for the top document itself).
func (d *Document) Depth() int {
	n := 0
	for t := d; t.hostFrame != nil; t = t.hostFrame.doc {
		n++
	}
	return n
}

// SetScroll sets the document's scroll offset. Offsets are clamped to
// non-negative values; clamping against the viewport is the browser's job
// since the document does not know the viewport size.
func (d *Document) SetScroll(p geom.Point) {
	if p.X < 0 {
		p.X = 0
	}
	if p.Y < 0 {
		p.Y = 0
	}
	d.scroll = p
}

// Scroll returns the current scroll offset.
func (d *Document) Scroll() geom.Point { return d.scroll }

// SameOriginWithTop reports whether every document from d up to and
// including the top shares d's origin — the condition under which a script
// in d may read geometry relative to the top viewport.
func (d *Document) SameOriginWithTop() bool {
	for t := d; t.hostFrame != nil; t = t.hostFrame.doc {
		if t.hostFrame.doc.origin != d.origin {
			return false
		}
	}
	return true
}

// Element is a node in a document's element tree.
type Element struct {
	doc      *Document
	parent   *Element
	children []*Element
	tag      string
	rect     geom.Rect // in the owning document's content coordinates
	hidden   bool      // CSS display:none-like flag
	childDoc *Document // non-nil iff this element is an iframe
	id       int
}

// AppendChild creates a child element with the given tag, positioned at
// rect (in the document's content coordinates), and returns it.
func (e *Element) AppendChild(tag string, rect geom.Rect) *Element {
	child := &Element{doc: e.doc, parent: e, tag: tag, rect: rect, id: e.doc.allocID()}
	e.children = append(e.children, child)
	return child
}

// GrowChildren reserves room for n more children, so appending them
// allocates nothing further.
func (e *Element) GrowChildren(n int) { e.children = slices.Grow(e.children, n) }

// AttachIframe creates an iframe element at rect whose content document has
// the given origin and a content size equal to the iframe's box. It
// returns the new content document; the iframe element is reachable via
// its HostFrame.
func (e *Element) AttachIframe(origin Origin, rect geom.Rect) *Document {
	frame := e.AppendChild("iframe", rect)
	child := NewDocument(origin, geom.Size{W: rect.W, H: rect.H})
	child.hostFrame = frame
	frame.childDoc = child
	return child
}

// Document returns the document owning this element.
func (e *Element) Document() *Document { return e.doc }

// Parent returns the element's parent, or nil for a root.
func (e *Element) Parent() *Element { return e.parent }

// Children returns the element's children; the slice must not be mutated.
func (e *Element) Children() []*Element { return e.children }

// ContentDocument returns the iframe's content document, or nil when the
// element is not an iframe.
func (e *Element) ContentDocument() *Document { return e.childDoc }

// Tag returns the element's tag name.
func (e *Element) Tag() string { return e.tag }

// ID returns the element's document-unique id.
func (e *Element) ID() int { return e.id }

// Rect returns the element's box in its document's content coordinates.
func (e *Element) Rect() geom.Rect { return e.rect }

// SetRect moves/resizes the element.
func (e *Element) SetRect(r geom.Rect) { e.rect = r }

// SetHidden toggles a display:none-like flag; hidden elements (and their
// subtrees) are never painted.
func (e *Element) SetHidden(h bool) { e.hidden = h }

// Hidden reports the element's own hidden flag (not ancestors').
func (e *Element) Hidden() bool { return e.hidden }

// EffectivelyHidden reports whether the element or any ancestor element /
// host frame is hidden.
func (e *Element) EffectivelyHidden() bool {
	for el := e; el != nil; {
		if el.hidden {
			return true
		}
		if el.parent != nil {
			el = el.parent
		} else if el.doc.hostFrame != nil {
			el = el.doc.hostFrame
		} else {
			el = nil
		}
	}
	return false
}

// FrameChain returns the iframe elements crossed walking from the top
// document down to e's document, outermost first. It is empty when e lives
// in the top document.
func (e *Element) FrameChain() []*Element {
	var rev []*Element
	for d := e.doc; d.hostFrame != nil; d = d.hostFrame.doc {
		rev = append(rev, d.hostFrame)
	}
	chain := make([]*Element, len(rev))
	for i, f := range rev {
		chain[len(rev)-1-i] = f
	}
	return chain
}

// AbsoluteRect returns the element's box in the *top document's* content
// coordinate space, applying each intermediate document's scroll offset.
// This is engine-internal truth: it ignores SOP (the compositor always
// knows real geometry). The top document's own scroll is *not* applied;
// mapping content space to the viewport is the browser's responsibility.
func (e *Element) AbsoluteRect() geom.Rect {
	r := e.rect
	for d := e.doc; d.hostFrame != nil; d = d.hostFrame.doc {
		// Content coordinates inside d map onto d's host frame box in the
		// parent document, shifted by d's own scroll offset.
		host := d.hostFrame
		r = r.Translate(host.rect.X-d.scroll.X, host.rect.Y-d.scroll.Y)
	}
	return r
}

// AbsoluteVisibleRect returns the portion of the element's box that
// survives clipping by every ancestor iframe viewport, in top-document
// content coordinates. The result is empty when the element is scrolled or
// positioned fully outside any ancestor frame.
func (e *Element) AbsoluteVisibleRect() geom.Rect {
	r := e.rect
	for d := e.doc; d.hostFrame != nil; d = d.hostFrame.doc {
		host := d.hostFrame
		// Clip against the frame's viewport in the child content space:
		// the visible window is [scroll, scroll+frameSize).
		clip := geom.Rect{X: d.scroll.X, Y: d.scroll.Y, W: host.rect.W, H: host.rect.H}
		r = r.Intersect(clip)
		if r.Empty() {
			return geom.Rect{}
		}
		r = r.Translate(host.rect.X-d.scroll.X, host.rect.Y-d.scroll.Y)
	}
	return r
}

// AbsolutePoint maps a point expressed in e's document content coordinates
// into top-document content coordinates.
func (e *Element) AbsolutePoint(p geom.Point) geom.Point {
	r := geom.Rect{X: p.X, Y: p.Y}
	for d := e.doc; d.hostFrame != nil; d = d.hostFrame.doc {
		host := d.hostFrame
		r = r.Translate(host.rect.X-d.scroll.X, host.rect.Y-d.scroll.Y)
	}
	return geom.Point{X: r.X, Y: r.Y}
}

// BoundingRectInTop is the SOP-guarded geometry API: it returns the
// element's box in top-document content coordinates if and only if every
// browsing context from the element's document up to the top shares the
// element's origin. Scripts (ad tags) must use this accessor; the
// commercial geometry-based tag's measured-rate deficit comes precisely
// from the ErrCrossOrigin path.
func (e *Element) BoundingRectInTop() (geom.Rect, error) {
	if !e.doc.SameOriginWithTop() {
		return geom.Rect{}, ErrCrossOrigin
	}
	return e.AbsoluteRect(), nil
}

// Walk visits e and every descendant element (crossing into iframe content
// documents) in depth-first order. Returning false from visit stops the
// walk.
func (e *Element) Walk(visit func(*Element) bool) bool {
	if !visit(e) {
		return false
	}
	for _, c := range e.children {
		if !c.Walk(visit) {
			return false
		}
	}
	if e.childDoc != nil {
		if !e.childDoc.root.Walk(visit) {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (e *Element) String() string {
	return fmt.Sprintf("<%s#%d %v origin=%s>", e.tag, e.id, e.rect, e.doc.origin)
}
