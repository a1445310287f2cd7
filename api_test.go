package qtag_test

import (
	"math"
	"net/http/httptest"
	"testing"
	"time"

	qtagapi "qtag"
	"qtag/internal/beacon"
	"qtag/internal/browser"
	"qtag/internal/dom"
	"qtag/internal/geom"
	"qtag/internal/simclock"
	"qtag/internal/wal"
)

// TestPublicAPIQuickstart drives the README's core flow through the
// facade only: deploy a tag on a simulated page, observe the beacons.
func TestPublicAPIQuickstart(t *testing.T) {
	clock := simclock.New()
	b := browser.New(clock, browser.Options{Profile: browser.CertificationProfiles()[1]})
	defer b.Close()
	w := b.OpenWindow(geom.Point{}, geom.Size{W: 1280, H: 720})
	doc := dom.NewDocument("https://pub.example", geom.Size{W: 1280, H: 5000})
	page := w.ActiveTab().Navigate(doc)
	frame := doc.Root().AttachIframe("https://dsp.example", geom.Rect{X: 100, Y: 100, W: 300, H: 250})
	creative := frame.Root().AppendChild("creative", geom.Rect{W: 300, H: 250})

	collector := qtagapi.NewCollector()
	rt := qtagapi.NewRuntime(page, creative, collector, qtagapi.Impression{
		ID: "i1", CampaignID: "c1", Format: qtagapi.Display,
	})
	if err := qtagapi.NewTag(qtagapi.TagConfig{}).Deploy(rt); err != nil {
		t.Fatal(err)
	}
	clock.Advance(1500 * time.Millisecond)
	if collector.InView("c1", beacon.SourceQTag) != 1 {
		t.Error("in-view missing through the public API")
	}
}

// TestPublicAPICommercialBaseline confirms the facade exposes the
// baseline and that it fails exactly where the paper says it does.
func TestPublicAPICommercialBaseline(t *testing.T) {
	clock := simclock.New()
	b := browser.New(clock, browser.Options{Profile: browser.AndroidWebViewProfile(true)})
	defer b.Close()
	w := b.OpenWindow(geom.Point{}, geom.Size{W: 412, H: 800})
	doc := dom.NewDocument("https://pub.example", geom.Size{W: 412, H: 2000})
	page := w.ActiveTab().Navigate(doc)
	frame := doc.Root().AttachIframe("https://dsp.example", geom.Rect{X: 50, Y: 100, W: 300, H: 250})
	creative := frame.Root().AppendChild("creative", geom.Rect{W: 300, H: 250})
	collector := qtagapi.NewCollector()

	commRT := qtagapi.NewRuntime(page, creative, collector, qtagapi.Impression{ID: "i", CampaignID: "c"})
	if err := qtagapi.NewCommercialTag().Deploy(commRT); err == nil {
		t.Error("commercial tag should fail in an old Android webview")
	}
	qRT := qtagapi.NewRuntime(page, creative, collector, qtagapi.Impression{ID: "i", CampaignID: "c"})
	if err := qtagapi.NewTag(qtagapi.TagConfig{}).Deploy(qRT); err != nil {
		t.Errorf("Q-Tag must work there: %v", err)
	}
}

// TestEndToEndHTTPPipeline is the full production shape over a real
// socket: collection server ← HTTP ← simulated campaigns, then stats
// queried back over HTTP and compared with the simulator's own
// aggregates.
func TestEndToEndHTTPPipeline(t *testing.T) {
	collector := qtagapi.NewCollector()
	srv := httptest.NewServer(qtagapi.NewCollectionServer(collector))
	defer srv.Close()
	sink := &qtagapi.HTTPSink{BaseURL: srv.URL, Retries: 2}

	res := qtagapi.RunProductionSim(qtagapi.SimConfig{
		Seed: 11, Campaigns: 4, ImpressionsPerCampaign: 40, BothCampaigns: 2,
		ExtraSink: sink,
	})

	// Server-side store must exactly mirror the simulator's local store.
	if collector.Len() != res.Store.Len() {
		t.Fatalf("HTTP store has %d events, local store %d", collector.Len(), res.Store.Len())
	}
	global, err := sink.FetchStats("")
	if err != nil {
		t.Fatal(err)
	}
	var served, loaded int
	for _, c := range res.Campaigns {
		served += c.Served
		loaded += c.QTagLoaded
	}
	if global.Served != served {
		t.Errorf("HTTP served = %d, sim served = %d", global.Served, served)
	}
	if global.Sources["qtag"].Loaded != loaded {
		t.Errorf("HTTP loaded = %d, sim loaded = %d", global.Sources["qtag"].Loaded, loaded)
	}
	// Per-campaign stats resolve too.
	stats, err := sink.FetchStats(res.Campaigns[0].Spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Served != res.Campaigns[0].Served {
		t.Errorf("campaign stats mismatch: %d vs %d", stats.Served, res.Campaigns[0].Served)
	}
}

// TestFacadeReproductionEntryPoints smoke-tests every reproduction entry
// point through the facade at minimal scale.
func TestFacadeReproductionEntryPoints(t *testing.T) {
	// Figure 2.
	points := qtagapi.LayoutSweep(qtagapi.LayoutSweepConfig{Steps: 40}, []int{9, 25})
	if len(points) != 18 {
		t.Errorf("layout sweep points = %d", len(points))
	}
	// Table 1.
	rep := qtagapi.RunCertification(qtagapi.CertificationConfig{Seed: 1, AutomatedReps: 2, ManualReps: 1})
	if rep.Total.Total != 6*2*6*2+2*6*1 {
		t.Errorf("certification runs = %d", rep.Total.Total)
	}
	// §4.3 placements.
	pl := qtagapi.RunRandomPlacements(50, 3)
	if pl.Correct != 50 {
		t.Errorf("placements = %+v", pl)
	}
	// Figure 3 + Table 2.
	res := qtagapi.RunProductionSim(qtagapi.SimConfig{
		Seed: 2, Campaigns: 4, ImpressionsPerCampaign: 50, BothCampaigns: 4,
	})
	fig := qtagapi.Figure3(res)
	if fig[beacon.SourceQTag].MeanMeasured <= fig[beacon.SourceCommercial].MeanMeasured {
		t.Error("facade Figure3 ordering wrong")
	}
	cells := qtagapi.Table2(res)
	if len(cells) != 4 {
		t.Errorf("Table2 cells = %d", len(cells))
	}
	// §6.1.
	u := qtagapi.RevenueUplift(qtagapi.PaperMidSizeDSP())
	if math.Abs(u.DailyUSD-9500) > 1 {
		t.Errorf("uplift = %v", u.DailyUSD)
	}
	if qtagapi.RevenueUplift(qtagapi.PaperLargeDSP()).DailyUSD <= u.DailyUSD {
		t.Error("large DSP should gain more")
	}
	// Standard criteria via facade.
	if qtagapi.StandardCriteria(qtagapi.Video).Dwell != 2*time.Second {
		t.Error("facade criteria wrong")
	}
}

// TestJournaledCollectionServer exercises the durability path end to
// end: ingest over HTTP through the WAL journal, then restart — reopen
// the same WAL directory — and find the collector rebuilt from it.
func TestJournaledCollectionServer(t *testing.T) {
	dir := t.TempDir()
	store := qtagapi.NewCollector()
	journal, _, err := beacon.OpenDurable(wal.Options{Dir: dir, Fsync: wal.FsyncAlways}, store)
	if err != nil {
		t.Fatal(err)
	}
	server := beacon.NewServerWithSink(store, beacon.Tee(store, journal))
	srv := httptest.NewServer(server)

	sink := &qtagapi.HTTPSink{BaseURL: srv.URL}
	events := []qtagapi.Event{
		{ImpressionID: "a", CampaignID: "c", Type: beacon.EventServed},
		{ImpressionID: "a", CampaignID: "c", Source: beacon.SourceQTag, Type: beacon.EventLoaded},
		{ImpressionID: "a", CampaignID: "c", Source: beacon.SourceQTag, Type: beacon.EventInView},
	}
	if err := sink.SubmitBatch(events); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}

	restored := qtagapi.NewCollector()
	reopened, rec, err := beacon.OpenDurable(wal.Options{Dir: dir}, restored)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if rec.Replayed != 3 {
		t.Fatalf("restart replayed %d events, want 3 (%+v)", rec.Replayed, rec)
	}
	if restored.InView("c", beacon.SourceQTag) != 1 {
		t.Error("restored collector wrong")
	}
}

// TestFacadeExtensions smoke-tests the extension entry points: the JS tag
// generator, the auditor and the predictor.
func TestFacadeExtensions(t *testing.T) {
	js := qtagapi.GenerateJS(qtagapi.TagConfig{}, "https://m.example/v1/events", geom.Size{W: 300, H: 250})
	if len(js) < 1000 {
		t.Errorf("generated tag suspiciously small: %d bytes", len(js))
	}

	res := qtagapi.RunProductionSim(qtagapi.SimConfig{
		Seed: 13, Campaigns: 5, ImpressionsPerCampaign: 60, BothCampaigns: 2,
		RecordImpressions: true, Parallelism: 2,
	})
	rep := qtagapi.Audit(res.Store, qtagapi.AuditOptions{})
	if !rep.Clean() {
		t.Errorf("simulation output failed its own audit: %s", rep)
	}
	model := qtagapi.TrainPredictor(res)
	if model.WDepth >= 0 {
		t.Errorf("predictor should learn that depth hurts: %s", model)
	}
	if p := model.Predict(0.05, true); p <= model.Predict(0.95, true) {
		t.Error("shallow placements must predict higher viewability")
	}
}
