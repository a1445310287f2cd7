package browser

import (
	"qtag/internal/dom"
	"qtag/internal/geom"
)

// Window is one browser window: a viewport-sized area positioned on the
// screen, holding one or more tabs of which exactly one is active.
type Window struct {
	browser *Browser
	pos     geom.Point
	size    geom.Size
	tabs    []*Tab
	active  int

	focused  bool
	obscured bool // fully covered by another application (§4.2 test 6)
	// onScreenOverride exists only so the zero value is invalid; windows
	// are always created on-screen and moved with MoveTo.
	onScreenOverride bool
}

// Browser returns the owning browser.
func (w *Window) Browser() *Browser { return w.browser }

// Pos returns the window's top-left position on the screen.
func (w *Window) Pos() geom.Point { return w.pos }

// Size returns the window's viewport size.
func (w *Window) Size() geom.Size { return w.size }

// ScreenRect returns the window's viewport rectangle in screen
// coordinates.
func (w *Window) ScreenRect() geom.Rect { return w.size.Rect(w.pos) }

// MoveTo moves the window to a new screen position. Positions outside the
// screen are legal — that is exactly certification test 4 ("browser moved
// off-screen").
func (w *Window) MoveTo(pos geom.Point) {
	w.pos = pos
	w.browser.InvalidateLayout()
}

// Resize changes the viewport size (certification test 2). Pages keep
// their scroll offsets, clamped to the new maximums.
func (w *Window) Resize(size geom.Size) {
	w.size = size
	for _, t := range w.tabs {
		if t.page != nil {
			t.page.clampScroll()
		}
	}
	w.browser.InvalidateLayout()
}

// SetObscured marks the window as fully covered by another application
// (certification test 6). Obscured windows render nothing.
func (w *Window) SetObscured(obscured bool) {
	w.obscured = obscured
	w.browser.InvalidateLayout()
}

// Obscured reports whether the window is covered by another application.
func (w *Window) Obscured() bool { return w.obscured }

// Focus gives the window input focus. Focus has no effect on rendering —
// certification test 3 ("out of focus") passes precisely because browsers
// keep painting unfocused-but-visible windows.
func (w *Window) Focus() {
	for _, other := range w.browser.windows {
		other.focused = false
	}
	w.focused = true
}

// Blur removes input focus.
func (w *Window) Blur() { w.focused = false }

// Focused reports whether the window has input focus.
func (w *Window) Focused() bool { return w.focused }

// OnScreenRegion returns the part of the viewport (in viewport
// coordinates) that is physically on the screen. It is empty when the
// window has been moved fully off-screen.
func (w *Window) OnScreenRegion() geom.Rect {
	screen := geom.Rect{W: w.browser.screen.W, H: w.browser.screen.H}
	visible := w.ScreenRect().Intersect(screen)
	if visible.Empty() {
		return geom.Rect{}
	}
	return visible.Translate(-w.pos.X, -w.pos.Y)
}

// Tabs returns the window's tabs in creation order.
func (w *Window) Tabs() []*Tab { return w.tabs }

// ActiveTab returns the currently rendered tab.
func (w *Window) ActiveTab() *Tab { return w.tabs[w.active] }

// NewTab opens a new (empty, inactive) tab and returns it.
func (w *Window) NewTab() *Tab {
	t := &Tab{window: w}
	w.tabs = append(w.tabs, t)
	return t
}

// ActivateTab makes t the rendered tab (certification test 7 switches
// away from the ad's tab). It panics if t belongs to another window.
func (w *Window) ActivateTab(t *Tab) {
	for i, tab := range w.tabs {
		if tab == t {
			w.active = i
			w.browser.InvalidateLayout()
			return
		}
	}
	panic("browser: ActivateTab with foreign tab")
}

// Tab is one tab in a window. A tab renders only while it is its window's
// active tab.
type Tab struct {
	window *Window
	page   *Page
}

// Window returns the owning window.
func (t *Tab) Window() *Window { return t.window }

// Active reports whether this tab is its window's active tab.
func (t *Tab) Active() bool { return t.window.tabs[t.window.active] == t }

// Page returns the tab's current page, or nil before navigation.
func (t *Tab) Page() *Page { return t.page }

// Navigate loads a document into the tab, replacing any current page, and
// returns the new Page.
func (t *Tab) Navigate(doc *dom.Document) *Page {
	if t.page != nil {
		t.page.detach()
	}
	p := &Page{tab: t, doc: doc}
	t.page = p
	t.window.browser.InvalidateLayout()
	return p
}
