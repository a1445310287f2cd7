package browser

import (
	"fmt"
	"math"
	"testing"
	"time"

	"qtag/internal/dom"
	"qtag/internal/geom"
	"qtag/internal/simclock"
)

const pub = dom.Origin("https://publisher.example")
const dsp = dom.Origin("https://dsp.example")

// compositors are the two compositor modes every paint test runs under:
// they must agree frame for frame.
var compositors = []struct {
	name     string
	perFrame bool
}{{"counted", false}, {"per-frame", true}}

// eachCompositor runs fn as a subtest under each compositor mode.
func eachCompositor(t *testing.T, fn func(t *testing.T, perFrame bool)) {
	for _, c := range compositors {
		t.Run(c.name, func(t *testing.T) { fn(t, c.perFrame) })
	}
}

// newTestPage builds a browser with one window (1280×720 viewport) showing
// a long publisher page, and returns the page plus a 300×250 ad creative
// element placed inside a double cross-domain iframe at adY pixels down
// the page.
func newTestPage(t *testing.T, perFrame bool, adY float64) (*simclock.Clock, *Browser, *Page, *dom.Element) {
	t.Helper()
	clock := simclock.New()
	b := New(clock, Options{Profile: CertificationProfiles()[1], PerFrameCompositor: perFrame}) // Chrome75-Win10
	w := b.OpenWindow(geom.Point{}, geom.Size{W: 1280, H: 720})
	doc := dom.NewDocument(pub, geom.Size{W: 1280, H: 6000})
	page := w.ActiveTab().Navigate(doc)
	outer := doc.Root().AttachIframe(dsp, geom.Rect{X: 200, Y: adY, W: 300, H: 250})
	inner := outer.Root().AttachIframe(dsp, geom.Rect{X: 0, Y: 0, W: 300, H: 250})
	creative := inner.Root().AppendChild("creative", geom.Rect{X: 0, Y: 0, W: 300, H: 250})
	return clock, b, page, creative
}

// countPaints observes el for d and returns its paint count.
func countPaints(clock *simclock.Clock, page *Page, el *dom.Element, d time.Duration) int {
	ps := page.ObservePaints(el)
	clock.Advance(d)
	ps.Cancel()
	return ps.Count(0)
}

func TestPaintRateInViewport(t *testing.T) {
	eachCompositor(t, func(t *testing.T, perFrame bool) {
		clock, b, page, creative := newTestPage(t, perFrame, 100)
		defer b.Close()
		n := countPaints(clock, page, creative, time.Second)
		if n < 58 || n > 62 {
			t.Errorf("in-viewport paint count over 1s = %d, want ~60", n)
		}
	})
}

func TestNoPaintBelowTheFold(t *testing.T) {
	eachCompositor(t, func(t *testing.T, perFrame bool) {
		clock, b, page, creative := newTestPage(t, perFrame, 3000) // far below 720px viewport
		defer b.Close()
		if n := countPaints(clock, page, creative, time.Second); n != 0 {
			t.Errorf("below-the-fold paint count = %d, want 0", n)
		}
	})
}

func TestScrollBringsAdIntoView(t *testing.T) {
	eachCompositor(t, func(t *testing.T, perFrame bool) {
		clock, b, page, creative := newTestPage(t, perFrame, 3000)
		defer b.Close()
		ps := page.ObservePaints(creative)
		clock.Advance(time.Second)
		if n := ps.Count(0); n != 0 {
			t.Fatalf("pre-scroll paints = %d", n)
		}
		page.ScrollTo(geom.Point{Y: 2900}) // ad now at viewport y=100..350
		clock.Advance(time.Second)
		if n := ps.Count(0); n < 55 {
			t.Errorf("post-scroll paints = %d, want ~60", n)
		}
	})
}

func TestScrollClamped(t *testing.T) {
	_, b, page, _ := newTestPage(t, false, 100)
	defer b.Close()
	page.ScrollTo(geom.Point{Y: 99999})
	if got := page.Scroll().Y; got != 6000-720 {
		t.Errorf("clamped scroll = %v, want %v", got, 6000-720)
	}
	page.ScrollTo(geom.Point{Y: -50})
	if page.Scroll().Y != 0 {
		t.Errorf("negative scroll should clamp to 0, got %v", page.Scroll().Y)
	}
}

func TestBackgroundTabStopsPainting(t *testing.T) {
	eachCompositor(t, func(t *testing.T, perFrame bool) {
		clock, b, page, creative := newTestPage(t, perFrame, 100)
		defer b.Close()
		ps := page.ObservePaints(creative)
		clock.Advance(500 * time.Millisecond)
		before := ps.Count(0)
		if before == 0 {
			t.Fatal("expected paints while active")
		}
		w := page.Tab().Window()
		other := w.NewTab()
		w.ActivateTab(other)
		clock.Advance(time.Second)
		if n := ps.Count(0); n != before {
			t.Errorf("background tab painted %d extra frames", n-before)
		}
		// Switching back resumes painting.
		w.ActivateTab(page.Tab())
		clock.Advance(500 * time.Millisecond)
		if ps.Count(0) <= before {
			t.Error("painting did not resume after tab reactivation")
		}
	})
}

func TestWindowMovedOffScreenStopsPainting(t *testing.T) {
	eachCompositor(t, func(t *testing.T, perFrame bool) {
		clock, b, page, creative := newTestPage(t, perFrame, 100)
		defer b.Close()
		ps := page.ObservePaints(creative)
		clock.Advance(200 * time.Millisecond)
		before := ps.Count(0)
		page.Tab().Window().MoveTo(geom.Point{X: 5000, Y: 5000})
		clock.Advance(time.Second)
		if n := ps.Count(0); n != before {
			t.Errorf("off-screen window painted %d frames", n-before)
		}
	})
}

func TestPartiallyOffScreenWindow(t *testing.T) {
	clock, b, page, creative := newTestPage(t, false, 100)
	defer b.Close()
	// Move the window so its left 600px are off-screen; the ad spans
	// x 200..500 in the viewport, so it becomes entirely invisible.
	page.Tab().Window().MoveTo(geom.Point{X: -600, Y: 0})
	n := countPaints(clock, page, creative, time.Second)
	if n != 0 {
		t.Errorf("ad in off-screen window strip painted %d frames", n)
	}
	// The fraction API agrees: nothing visible.
	if f := page.TrueVisibleFraction(creative); f != 0 {
		t.Errorf("TrueVisibleFraction = %v", f)
	}
	// Move back partially: 100px of the ad on screen (viewport x 200..500
	// at window x −400 → screen −200..100).
	page.Tab().Window().MoveTo(geom.Point{X: -400, Y: 0})
	if f := page.TrueVisibleFraction(creative); math.Abs(f-100.0/300.0) > 1e-9 {
		t.Errorf("partial fraction = %v, want 1/3", f)
	}
}

func TestObscuredWindowStopsPainting(t *testing.T) {
	eachCompositor(t, func(t *testing.T, perFrame bool) {
		clock, b, page, creative := newTestPage(t, perFrame, 100)
		defer b.Close()
		page.Tab().Window().SetObscured(true)
		if n := countPaints(clock, page, creative, time.Second); n != 0 {
			t.Errorf("obscured window painted %d frames", n)
		}
		if !page.Tab().Window().Obscured() {
			t.Error("Obscured flag lost")
		}
	})
}

func TestFocusDoesNotAffectPainting(t *testing.T) {
	clock, b, page, creative := newTestPage(t, false, 100)
	defer b.Close()
	page.Tab().Window().Blur()
	if page.Tab().Window().Focused() {
		t.Error("Blur did not clear focus")
	}
	if n := countPaints(clock, page, creative, time.Second); n < 55 {
		t.Errorf("unfocused-but-visible window painted %d frames, want ~60", n)
	}
}

func TestResizeEnlargesViewport(t *testing.T) {
	clock, b, page, creative := newTestPage(t, false, 800) // just below 720px fold
	defer b.Close()
	if f := page.TrueVisibleFraction(creative); f != 0 {
		t.Fatalf("ad unexpectedly visible: %v", f)
	}
	page.Tab().Window().Resize(geom.Size{W: 1280, H: 1100})
	if f := page.TrueVisibleFraction(creative); f != 1 {
		t.Errorf("after enlarge fraction = %v, want 1", f)
	}
	if n := countPaints(clock, page, creative, time.Second); n < 55 {
		t.Errorf("paints after resize = %d", n)
	}
}

func TestCPULoadDegradesRefreshRate(t *testing.T) {
	eachCompositor(t, func(t *testing.T, perFrame bool) {
		clock, b, page, creative := newTestPage(t, perFrame, 100)
		defer b.Close()
		b.SetCPULoad(0.5) // 30 fps effective
		if got := b.EffectiveRefreshRate(); math.Abs(got-30) > 1e-9 {
			t.Fatalf("effective rate = %v", got)
		}
		if n := countPaints(clock, page, creative, time.Second); n < 28 || n > 32 {
			t.Errorf("paints under 50%% load = %d, want ~30", n)
		}
		if b.CPULoad() != 0.5 {
			t.Errorf("CPULoad = %v", b.CPULoad())
		}
		b.SetCPULoad(2) // clamped
		if b.CPULoad() != 0.95 {
			t.Errorf("clamped CPULoad = %v", b.CPULoad())
		}
	})
}

func TestHiddenFPSTrickle(t *testing.T) {
	eachCompositor(t, func(t *testing.T, perFrame bool) {
		clock := simclock.New()
		prof := CertificationProfiles()[0]
		prof.HiddenFPS = 1
		b := New(clock, Options{Profile: prof, PerFrameCompositor: perFrame})
		defer b.Close()
		w := b.OpenWindow(geom.Point{}, geom.Size{W: 1280, H: 720})
		doc := dom.NewDocument(pub, geom.Size{W: 1280, H: 6000})
		page := w.ActiveTab().Navigate(doc)
		el := doc.Root().AppendChild("div", geom.Rect{X: 0, Y: 3000, W: 10, H: 10}) // hidden below fold
		if n := countPaints(clock, page, el, 4*time.Second); n < 2 || n > 6 {
			t.Errorf("hidden trickle delivered %d paints over 4s, want ~4", n)
		}
	})
}

func TestHiddenElementNeverPaints(t *testing.T) {
	eachCompositor(t, func(t *testing.T, perFrame bool) {
		clock, b, page, creative := newTestPage(t, perFrame, 100)
		defer b.Close()
		creative.SetHidden(true)
		b.InvalidateLayout()
		if n := countPaints(clock, page, creative, time.Second); n != 0 {
			t.Errorf("display:none element painted %d frames", n)
		}
	})
}

func TestObserverCancel(t *testing.T) {
	eachCompositor(t, func(t *testing.T, perFrame bool) {
		clock, b, page, creative := newTestPage(t, perFrame, 100)
		defer b.Close()
		ps := page.ObservePaints(creative)
		clock.Advance(100 * time.Millisecond)
		ps.Cancel()
		before := ps.Count(0)
		if before != 6 {
			t.Errorf("paints before Cancel = %d, want 6", before)
		}
		clock.Advance(time.Second)
		if n := ps.Count(0); n != before {
			t.Errorf("cancelled set counted %d more paints", n-before)
		}
		ps.Cancel() // double cancel is safe
		if ps.Len() != 1 || len(page.paints) != 0 {
			t.Errorf("Len = %d, live sets = %d", ps.Len(), len(page.paints))
		}
	})
}

func TestTrueVisibleFractionHalf(t *testing.T) {
	_, b, page, creative := newTestPage(t, false, 100)
	defer b.Close()
	// Scroll so the ad (y 100..350) is half cut by the top edge: scroll to 225.
	page.ScrollTo(geom.Point{Y: 225})
	if f := page.TrueVisibleFraction(creative); math.Abs(f-0.5) > 1e-9 {
		t.Errorf("fraction = %v, want 0.5", f)
	}
}

func TestTrueVisibleFractionFrameClip(t *testing.T) {
	clock := simclock.New()
	b := New(clock, Options{Profile: CertificationProfiles()[0]})
	defer b.Close()
	w := b.OpenWindow(geom.Point{}, geom.Size{W: 1280, H: 720})
	doc := dom.NewDocument(pub, geom.Size{W: 1280, H: 2000})
	page := w.ActiveTab().Navigate(doc)
	// A 300×250 frame whose creative overflows it by 100%: only half the
	// creative can ever show.
	frame := doc.Root().AttachIframe(dsp, geom.Rect{X: 0, Y: 0, W: 300, H: 250})
	big := frame.Root().AppendChild("creative", geom.Rect{X: 0, Y: 0, W: 600, H: 250})
	if f := page.TrueVisibleFraction(big); math.Abs(f-0.5) > 1e-9 {
		t.Errorf("frame-clipped fraction = %v, want 0.5", f)
	}
}

func TestPointVisibleEdges(t *testing.T) {
	_, b, page, creative := newTestPage(t, false, 100)
	defer b.Close()
	if !page.PointVisible(creative, geom.Point{X: 0, Y: 0}) {
		t.Error("creative origin should be visible")
	}
	// A point outside the inner frame box is clipped even though the
	// element rect claims it.
	if page.PointVisible(creative, geom.Point{X: 301, Y: 10}) {
		t.Error("point beyond frame width should be clipped")
	}
}

func TestWindowAccessors(t *testing.T) {
	clock := simclock.New()
	b := New(clock, Options{Profile: BraveProfile()})
	defer b.Close()
	w := b.OpenWindow(geom.Point{X: 10, Y: 20}, geom.Size{W: 800, H: 600})
	if w.Pos() != (geom.Point{X: 10, Y: 20}) || w.Size() != (geom.Size{W: 800, H: 600}) {
		t.Error("pos/size accessors wrong")
	}
	if w.ScreenRect() != (geom.Rect{X: 10, Y: 20, W: 800, H: 600}) {
		t.Error("ScreenRect wrong")
	}
	if !w.Focused() {
		t.Error("first window should be focused")
	}
	w2 := b.OpenWindow(geom.Point{}, geom.Size{W: 100, H: 100})
	if w2.Focused() {
		t.Error("second window should not steal focus on open")
	}
	w2.Focus()
	if w.Focused() || !w2.Focused() {
		t.Error("Focus should be exclusive")
	}
	if len(b.Windows()) != 2 {
		t.Error("Windows() wrong")
	}
	if b.String() == "" || w.Browser() != b {
		t.Error("misc accessors")
	}
}

func TestActivateForeignTabPanics(t *testing.T) {
	clock := simclock.New()
	b := New(clock, Options{Profile: CertificationProfiles()[0]})
	defer b.Close()
	w1 := b.OpenWindow(geom.Point{}, geom.Size{W: 100, H: 100})
	w2 := b.OpenWindow(geom.Point{}, geom.Size{W: 100, H: 100})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	w1.ActivateTab(w2.ActiveTab())
}

func TestMobileDefaults(t *testing.T) {
	clock := simclock.New()
	b := New(clock, Options{Profile: AndroidChromeProfile()})
	defer b.Close()
	if b.Screen() != (geom.Size{W: 412, H: 869}) {
		t.Errorf("mobile default screen = %v", b.Screen())
	}
	if b.Profile().Device != Mobile || b.Profile().Site != SiteBrowser {
		t.Error("profile fields wrong")
	}
}

func TestProfileStockLists(t *testing.T) {
	certs := CertificationProfiles()
	if len(certs) != 6 {
		t.Fatalf("want 6 certification profiles, got %d", len(certs))
	}
	names := map[string]bool{}
	for _, p := range certs {
		if names[p.Name] {
			t.Errorf("duplicate profile %q", p.Name)
		}
		names[p.Name] = true
		if !p.SupportsFrameCallbacks {
			t.Errorf("%s should support frame callbacks", p.Name)
		}
		if p.RefreshRate != 60 {
			t.Errorf("%s refresh rate = %v", p.Name, p.RefreshRate)
		}
	}
	// IE11 lacks IntersectionObserver; modern Chrome has it.
	for _, p := range certs {
		if p.Browser == "IE" && p.SupportsIntersectionObserver {
			t.Error("IE11 must not support IntersectionObserver")
		}
		if p.Browser == "Chrome" && !p.SupportsIntersectionObserver {
			t.Error("Chrome should support IntersectionObserver")
		}
	}
	for _, p := range PrivacyProfiles() {
		if !p.BlocksThirdPartyCookies {
			t.Errorf("%s should block third-party cookies", p.Name)
		}
		if p.BuiltinAdBlock {
			t.Errorf("%s should not block ads", p.Name)
		}
	}
	if !BraveProfile().BuiltinAdBlock {
		t.Error("Brave must have builtin adblock")
	}
	if AndroidWebViewProfile(true).SupportsIntersectionObserver {
		t.Error("old Android webview must lack IntersectionObserver")
	}
	if !AndroidWebViewProfile(false).SupportsIntersectionObserver {
		t.Error("new Android webview should have IntersectionObserver")
	}
	if !IOSWebViewProfile(true).SupportsIntersectionObserver || IOSWebViewProfile(false).SupportsIntersectionObserver {
		t.Error("iOS webview modern flag wiring wrong")
	}
	if AndroidWebViewProfile(true).Site != SiteApp || IOSSafariProfile().Site != SiteBrowser {
		t.Error("site types wrong")
	}
	if got := (Profile{Browser: "X", Version: 1, OS: Windows, OSVersion: "10"}).String(); got == "" {
		t.Error("Profile.String empty")
	}
	if Desktop.String() != "desktop" || Mobile.String() != "mobile" ||
		SiteApp.String() != "app" || SiteBrowser.String() != "browser" {
		t.Error("enum strings wrong")
	}
}

func TestCloseStopsFrames(t *testing.T) {
	eachCompositor(t, func(t *testing.T, perFrame bool) {
		clock, b, page, creative := newTestPage(t, perFrame, 100)
		ps := page.ObservePaints(creative)
		clock.Advance(100 * time.Millisecond)
		b.Close()
		clock.Advance(time.Second)
		if n := ps.Count(0); n != 6 {
			t.Errorf("paints = %d after Close at 100ms, want 6", n)
		}
		b.Close() // double close is safe
	})
}

func TestViewportRectInContent(t *testing.T) {
	_, b, page, _ := newTestPage(t, false, 100)
	defer b.Close()
	page.ScrollTo(geom.Point{Y: 500})
	got := page.ViewportRectInContent()
	if got != (geom.Rect{X: 0, Y: 500, W: 1280, H: 720}) {
		t.Errorf("ViewportRectInContent = %v", got)
	}
}

func TestTwoWindowsRenderIndependently(t *testing.T) {
	eachCompositor(t, func(t *testing.T, perFrame bool) { testTwoWindows(t, perFrame) })
}

func testTwoWindows(t *testing.T, perFrame bool) {
	clock := simclock.New()
	b := New(clock, Options{Profile: CertificationProfiles()[0], PerFrameCompositor: perFrame})
	defer b.Close()
	// Two side-by-side windows, each with its own page and ad.
	mk := func(pos geom.Point) (*Page, *dom.Element) {
		w := b.OpenWindow(pos, geom.Size{W: 800, H: 600})
		doc := dom.NewDocument(pub, geom.Size{W: 800, H: 2000})
		page := w.ActiveTab().Navigate(doc)
		el := doc.Root().AppendChild("ad", geom.Rect{X: 100, Y: 100, W: 300, H: 250})
		return page, el
	}
	p1, e1 := mk(geom.Point{X: 0, Y: 0})
	p2, e2 := mk(geom.Point{X: 900, Y: 0})
	s1, s2 := p1.ObservePaints(e1), p2.ObservePaints(e2)
	clock.Advance(time.Second)
	n1, n2 := s1.Count(0), s2.Count(0)
	if n1 < 55 || n2 < 55 {
		t.Fatalf("both windows should paint: %d / %d", n1, n2)
	}
	// Moving only window 2 off-screen stops only its paints.
	p2.Tab().Window().MoveTo(geom.Point{X: 5000, Y: 0})
	clock.Advance(time.Second)
	if d := s1.Count(0) - n1; d < 55 {
		t.Errorf("window 1 paints stalled: +%d", d)
	}
	if d := s2.Count(0) - n2; d != 0 {
		t.Errorf("off-screen window 2 painted +%d", d)
	}
}

func TestInnerIframeScrollAffectsPainting(t *testing.T) {
	eachCompositor(t, func(t *testing.T, perFrame bool) { testInnerIframeScroll(t, perFrame) })
}

func testInnerIframeScroll(t *testing.T, perFrame bool) {
	clock := simclock.New()
	b := New(clock, Options{Profile: CertificationProfiles()[0], PerFrameCompositor: perFrame})
	defer b.Close()
	w := b.OpenWindow(geom.Point{}, geom.Size{W: 1280, H: 720})
	doc := dom.NewDocument(pub, geom.Size{W: 1280, H: 2000})
	page := w.ActiveTab().Navigate(doc)
	// A scrollable 300×250 iframe whose content is 300×500.
	frameDoc := doc.Root().AttachIframe(dsp, geom.Rect{X: 100, Y: 100, W: 300, H: 250})
	el := frameDoc.Root().AppendChild("content", geom.Rect{X: 0, Y: 400, W: 10, H: 10})
	ps := page.ObservePaints(el)
	clock.Advance(500 * time.Millisecond)
	if n := ps.Count(0); n != 0 {
		t.Fatalf("content below the iframe viewport painted %d frames", n)
	}
	// Scrolling the iframe's own document brings the element into its box.
	frameDoc.SetScroll(geom.Point{Y: 250})
	b.InvalidateLayout()
	clock.Advance(500 * time.Millisecond)
	if n := ps.Count(0); n < 25 {
		t.Errorf("scrolled-in iframe content painted only %d frames", n)
	}
}

func TestDeeplyNestedIframes(t *testing.T) {
	clock := simclock.New()
	b := New(clock, Options{Profile: CertificationProfiles()[0]})
	defer b.Close()
	w := b.OpenWindow(geom.Point{}, geom.Size{W: 1280, H: 720})
	doc := dom.NewDocument(pub, geom.Size{W: 1280, H: 2000})
	page := w.ActiveTab().Navigate(doc)
	// Four nested cross-origin iframes, each inset by 10px.
	cur := doc.Root()
	x, y := 100.0, 100.0
	for i := 0; i < 4; i++ {
		origin := dom.Origin(fmt.Sprintf("https://layer%d.example", i))
		child := cur.AttachIframe(origin, geom.Rect{X: x, Y: y, W: 300 - float64(i)*20, H: 250 - float64(i)*20})
		cur = child.Root()
		x, y = 10, 10
	}
	el := cur.AppendChild("pixel", geom.Rect{X: 5, Y: 5, W: 1, H: 1})
	if got := len(el.FrameChain()); got != 4 {
		t.Fatalf("chain depth = %d", got)
	}
	if n := countPaints(clock, page, el, 500*time.Millisecond); n < 25 {
		t.Errorf("deeply nested pixel painted %d frames", n)
	}
	if f := page.TrueVisibleFraction(el); f != 1 {
		t.Errorf("nested pixel fraction = %v", f)
	}
}

// scenario drives a 50 fps browser through a script whose events land on
// frame instants and returns every count read along the way. Reads run
// every 100 ms — every fifth frame — and scrolls, a CPU-load change, a
// Cancel, a navigation and Close all happen exactly at frame instants, so
// same-instant ordering decides the counts.
func scenario(t *testing.T, perFrame bool, hiddenFPS float64) [][]int {
	t.Helper()
	clock := simclock.New()
	prof := CertificationProfiles()[1]
	prof.RefreshRate = 50
	prof.HiddenFPS = hiddenFPS
	b := New(clock, Options{Profile: prof, PerFrameCompositor: perFrame})
	w := b.OpenWindow(geom.Point{}, geom.Size{W: 1280, H: 720})
	doc := dom.NewDocument(pub, geom.Size{W: 1280, H: 6000})
	page := w.ActiveTab().Navigate(doc)
	els := []*dom.Element{
		doc.Root().AppendChild("top", geom.Rect{X: 10, Y: 100, W: 10, H: 10}),
		doc.Root().AppendChild("fold", geom.Rect{X: 10, Y: 700, W: 10, H: 40}),
		doc.Root().AppendChild("deep", geom.Rect{X: 10, Y: 3000, W: 10, H: 10}),
	}
	frame := doc.Root().AttachIframe(dsp, geom.Rect{X: 300, Y: 500, W: 300, H: 250})
	els = append(els, frame.Root().AppendChild("framed", geom.Rect{X: 100, Y: 100, W: 1, H: 1}))
	main := page.ObservePaints(els...)

	// A second tab whose page is replaced mid-run: its counts freeze.
	tab2 := w.NewTab()
	doc2 := dom.NewDocument(pub, geom.Size{W: 1280, H: 2000})
	page2 := tab2.Navigate(doc2)
	other := page2.ObservePaints(doc2.Root().AppendChild("bg", geom.Rect{X: 10, Y: 10, W: 10, H: 10}))
	extra := page.ObservePaints(els[0])

	var reads [][]int
	read := func() {
		var r []int
		for _, s := range []*PaintSet{main, other, extra} {
			for i := 0; i < s.Len(); i++ {
				r = append(r, s.Count(i))
			}
		}
		reads = append(reads, r)
	}
	clock.Every(100*time.Millisecond, read)
	for i, y := range []float64{40, 700, 2400, 0, 650, 20} {
		clock.At(time.Duration(i+1)*140*time.Millisecond, func() { page.ScrollTo(geom.Point{Y: y}) })
	}
	clock.At(200*time.Millisecond, func() { w.ActivateTab(tab2) })
	clock.At(260*time.Millisecond, func() { w.ActivateTab(page.Tab()) })
	// Load changes move the frame rate and the trickle ratio; the 300ms
	// frame is still unsettled at the first one.
	clock.At(320*time.Millisecond, func() { b.SetCPULoad(0.5) })
	clock.At(340*time.Millisecond, func() {
		// Armed from a callback: lands after the frame re-armed at 320ms.
		clock.AfterFunc(20*time.Millisecond, func() { b.SetCPULoad(0) })
	})
	clock.At(420*time.Millisecond, func() { w.MoveTo(geom.Point{X: -1275}) })
	clock.At(480*time.Millisecond, func() { w.MoveTo(geom.Point{}) })
	clock.At(500*time.Millisecond, func() { tab2.Navigate(dom.NewDocument(pub, geom.Size{W: 10, H: 10})) })
	clock.At(560*time.Millisecond, extra.Cancel)
	clock.At(900*time.Millisecond, b.Close)
	clock.Advance(1200 * time.Millisecond)
	read()
	return reads
}

// TestCompositorsAgree is the browser-level differential oracle: the
// counted compositor reproduces the per-frame reference read for read,
// with and without a HiddenFPS trickle (25 fps makes every other hidden
// frame paint).
func TestCompositorsAgree(t *testing.T) {
	for _, hidden := range []float64{0, 1, 25} {
		counted := scenario(t, false, hidden)
		reference := scenario(t, true, hidden)
		if len(counted) != len(reference) {
			t.Fatalf("hidden=%v: %d reads vs %d", hidden, len(counted), len(reference))
		}
		for i := range counted {
			for j := range counted[i] {
				if counted[i][j] != reference[i][j] {
					t.Fatalf("hidden=%v: read %d = %v, reference %v", hidden, i, counted[i], reference[i])
				}
			}
		}
	}
}

// TestCountedTieRule pins the same-instant rule: a 100 ms reader armed
// after the 50 fps frame loop reads before the frame at its own instant,
// because each frame's place was taken when the previous frame fired.
func TestCountedTieRule(t *testing.T) {
	eachCompositor(t, func(t *testing.T, perFrame bool) {
		reads := scenario(t, perFrame, 0)
		// Element 0 is in view until the 280ms scroll to 700.
		if reads[0][0] != 4 || reads[1][0] != 9 {
			t.Errorf("top element read %d, %d at 100/200ms, want 4, 9", reads[0][0], reads[1][0])
		}
		// The second tab is active from 200ms to 260ms; both switches
		// precede the frame at their instant, so it paints at 200, 220 and
		// 240ms, then never again.
		if got := reads[len(reads)-1][4]; got != 3 {
			t.Errorf("second tab painted %d frames, want 3", got)
		}
	})
}
