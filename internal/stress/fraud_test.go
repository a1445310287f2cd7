package stress

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"qtag/internal/beacon"
	"qtag/internal/campaign"
	"qtag/internal/collector"
	"qtag/internal/detect"
	"qtag/internal/faults"
	"qtag/internal/obs"
	"qtag/internal/report"
	"qtag/internal/simrand"
	"qtag/internal/wal"
)

// This file is the detection layer's proof harness: adversarial actor
// traffic (internal/campaign) is driven through the full HTTP ingest
// path of StartIngestServer with -detect wiring, the lifecycle tracer's
// fraud tags serve as ground truth, and the scores GET /report returns
// are held to explicit per-scenario precision/recall floors. The fraud
// chaos test then restarts the server mid-campaign and proves the
// scores rebuild from the WAL alone.

// fraudScenario is one row of the detection evaluation table.
type fraudScenario struct {
	name string
	// actors is the traffic mix; ground truth comes from their tags.
	actors []campaign.ActorSpec
	// dupNoise injects benign at-least-once retry re-submissions into
	// every actor's traffic — the false-positive hazard the duplicate
	// detector must ride out.
	dupNoise float64
	// minRecall / minPrecision are the floors over campaign-level
	// flags. Scenarios with no fraudulent campaigns pin maxFlagged
	// instead.
	minRecall    float64
	minPrecision float64
	maxFlagged   int
}

// runFraudScenario drives the scenario's actors through srv over HTTP
// and returns the oracle labels and the flagged-campaign set from
// GET /report.
func runFraudScenario(t *testing.T, sc fraudScenario) (labels map[string]bool, flagged map[string]bool, snap detect.Snapshot) {
	t.Helper()
	srv, err := StartIngestServer(collector.Config{Shards: 4, Detect: &detect.Options{}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tracer := obs.NewLifecycleTracer(campaign.ActorEpoch)
	rng := simrand.New(97)
	var sink beacon.Sink = &beacon.HTTPSink{BaseURL: srv.URL, Retries: 2}
	if sc.dupNoise > 0 {
		sink = faults.NewSink(sink, rng.Fork("dup-noise"), faults.Profile{Duplicate: sc.dupNoise})
	}
	for _, spec := range sc.actors {
		if n := campaign.RunActor(spec, rng, sink, tracer); n == 0 {
			t.Fatalf("actor %s/%s emitted nothing", spec.Kind, spec.CampaignID)
		}
	}

	resp, err := http.Get(srv.URL + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /report: status %d", resp.StatusCode)
	}
	var r report.ViewabilityReport
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatalf("GET /report: decode: %v", err)
	}
	if r.Fraud == nil {
		t.Fatal("GET /report carries no fraud object with Detect enabled")
	}
	flagged = make(map[string]bool)
	for _, id := range r.Fraud.Flagged {
		flagged[id] = true
	}
	return campaign.OracleLabels(tracer), flagged, *r.Fraud
}

// precisionRecall scores a flagged set against oracle labels at
// campaign granularity.
func precisionRecall(labels map[string]bool, flagged map[string]bool) (precision, recall float64, fp int) {
	tp, fraudTotal := 0, 0
	for id, fraud := range labels {
		if fraud {
			fraudTotal++
			if flagged[id] {
				tp++
			}
		} else if flagged[id] {
			fp++
		}
	}
	precision, recall = 1, 1
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	if fraudTotal > 0 {
		recall = float64(tp) / float64(fraudTotal)
	}
	return precision, recall, fp
}

// honestMix is the clean background population every scenario runs
// against, so false positives are measured on realistic traffic.
func honestMix(n int) []campaign.ActorSpec {
	specs := make([]campaign.ActorSpec, n)
	for i := range specs {
		specs[i] = campaign.ActorSpec{
			Kind:        campaign.ActorHonest,
			CampaignID:  fmt.Sprintf("camp-ok-%c", 'a'+i),
			Impressions: 60,
		}
	}
	return specs
}

// TestFraudPrecisionRecall: the table-driven detection evaluation. Each
// scenario's floors are part of the contract — a detector change that
// trades recall away or starts flagging honest campaigns fails here,
// not in production.
func TestFraudPrecisionRecall(t *testing.T) {
	scenarios := []fraudScenario{
		{
			name: "replay-flood",
			actors: append(honestMix(3),
				campaign.ActorSpec{Kind: campaign.ActorReplayFarm, CampaignID: "camp-replay-a", Impressions: 20},
				campaign.ActorSpec{Kind: campaign.ActorReplayFarm, CampaignID: "camp-replay-b", Impressions: 20}),
			minRecall:    0.9,
			minPrecision: 0.95,
		},
		{
			name: "spoofed-in-view",
			actors: append(honestMix(3),
				campaign.ActorSpec{Kind: campaign.ActorSpoofedInView, CampaignID: "camp-spoof", Impressions: 60}),
			minRecall:    0.9,
			minPrecision: 0.95,
		},
		{
			name: "ad-stacking",
			actors: append(honestMix(3),
				campaign.ActorSpec{Kind: campaign.ActorAdStacking, CampaignID: "camp-stack", Impressions: 60}),
			minRecall:    0.9,
			minPrecision: 0.95,
		},
		{
			name: "hidden-iframe",
			actors: append(honestMix(3),
				campaign.ActorSpec{Kind: campaign.ActorHiddenIframe, CampaignID: "camp-hidden", Impressions: 60}),
			minRecall:    0.9,
			minPrecision: 0.95,
		},
		{
			name: "duplicate-flood",
			actors: append(honestMix(3),
				campaign.ActorSpec{Kind: campaign.ActorDuplicateFlood, CampaignID: "camp-dupe", Impressions: 8, Replays: 40}),
			// Honest traffic carries benign retry noise; the flood must
			// still separate cleanly from it.
			dupNoise:     0.05,
			minRecall:    0.9,
			minPrecision: 0.95,
		},
		{
			name: "mixed",
			actors: append(honestMix(5),
				campaign.ActorSpec{Kind: campaign.ActorReplayFarm, CampaignID: "camp-replay", Impressions: 20},
				campaign.ActorSpec{Kind: campaign.ActorSpoofedInView, CampaignID: "camp-spoof", Impressions: 60},
				campaign.ActorSpec{Kind: campaign.ActorAdStacking, CampaignID: "camp-stack", Impressions: 60},
				campaign.ActorSpec{Kind: campaign.ActorHiddenIframe, CampaignID: "camp-hidden", Impressions: 60},
				campaign.ActorSpec{Kind: campaign.ActorDuplicateFlood, CampaignID: "camp-dupe", Impressions: 8, Replays: 40}),
			dupNoise:     0.03,
			minRecall:    0.9,
			minPrecision: 0.95,
		},
		{
			// The zero-false-positive floor: nothing but honest traffic,
			// with retry noise, must flag nothing at all.
			name:       "honest-only",
			actors:     honestMix(6),
			dupNoise:   0.05,
			maxFlagged: 0,
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			labels, flagged, snap := runFraudScenario(t, sc)
			precision, recall, fp := precisionRecall(labels, flagged)
			t.Logf("%s: precision=%.2f recall=%.2f fp=%d flagged=%v", sc.name, precision, recall, fp, snap.Flagged)
			if recall < sc.minRecall {
				t.Errorf("recall %.2f below floor %.2f (flagged %v, labels %v)", recall, sc.minRecall, snap.Flagged, labels)
			}
			if precision < sc.minPrecision {
				t.Errorf("precision %.2f below floor %.2f (flagged %v, labels %v)", precision, sc.minPrecision, snap.Flagged, labels)
			}
			if sc.minRecall == 0 && len(flagged) > sc.maxFlagged {
				t.Errorf("flagged %v in a scenario allowing at most %d flags", snap.Flagged, sc.maxFlagged)
			}
			// Every score the endpoint serves is a probability.
			for _, row := range snap.Rows {
				if row.Score < 0 || row.Score > 1 {
					t.Errorf("score out of [0,1]: %+v", row)
				}
			}
		})
	}
}

// TestFraudChaos: a server restart mid-campaign must not change a
// single fraud score — the detection layer's state is rebuilt from the
// WAL replay on boot, duplicate floods included, and ends byte-equal
// to an uninterrupted control run. make fraud-chaos runs this under
// -race.
func TestFraudChaos(t *testing.T) {
	// Capture the full deterministic beacon stream first so the same
	// submissions, in the same order, drive both runs.
	var stream []beacon.Event
	capture := sinkFunc(func(e beacon.Event) error { stream = append(stream, e); return nil })
	rng := simrand.New(41)
	for _, spec := range []campaign.ActorSpec{
		{Kind: campaign.ActorHonest, CampaignID: "camp-live", Impressions: 40},
		{Kind: campaign.ActorReplayFarm, CampaignID: "camp-replay", Impressions: 10, Replays: 3},
		{Kind: campaign.ActorDuplicateFlood, CampaignID: "camp-dupe", Impressions: 4, Replays: 20},
	} {
		campaign.RunActor(spec, rng, capture, nil)
	}
	if len(stream) < 100 {
		t.Fatalf("stream too small to cut meaningfully: %d", len(stream))
	}
	// Mid-campaign cut: the replay farm straddles it, so duplicate
	// state must survive the restart for the scores to come out equal.
	cut := len(stream) / 2

	durable := collector.Config{
		Shards:      4,
		WAL:         wal.Options{Fsync: wal.FsyncAlways},
		DurableSync: true,
		Detect:      &detect.Options{},
	}
	submit := func(t *testing.T, url string, events []beacon.Event) {
		t.Helper()
		sink := &beacon.HTTPSink{BaseURL: url, Retries: 2}
		for _, e := range events {
			if err := sink.Submit(e); err != nil {
				t.Fatalf("submit: %v", err)
			}
		}
	}

	// Control: one server, the whole stream, no interruption.
	ctrlCfg := durable
	ctrlCfg.WAL.Dir = t.TempDir()
	ctrl, err := StartIngestServer(ctrlCfg)
	if err != nil {
		t.Fatal(err)
	}
	submit(t, ctrl.URL, stream)
	want := ctrl.Detect.Snapshot()
	if err := ctrl.Close(); err != nil {
		t.Fatal(err)
	}
	if len(want.Flagged) == 0 {
		t.Fatal("control run flagged nothing; the chaos comparison would be vacuous")
	}

	// Interrupted: same stream, but the server dies at the cut and a
	// fresh process recovers the WAL before the second half lands.
	dir := t.TempDir()
	chaosCfg := durable
	chaosCfg.WAL.Dir = dir
	first, err := StartIngestServer(chaosCfg)
	if err != nil {
		t.Fatal(err)
	}
	submit(t, first.URL, stream[:cut])
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	second, err := StartIngestServer(chaosCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if second.Detect.DupEvents() == 0 {
		t.Fatal("WAL boot replay fed no duplicates to the detector; dup-flood state would be lost across restarts")
	}
	submit(t, second.URL, stream[cut:])
	got := second.Detect.Snapshot()

	if !reflect.DeepEqual(got, want) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		t.Fatalf("restart changed fraud scores\n got: %s\nwant: %s", g, w)
	}
}

// sinkFunc adapts a function to beacon.Sink.
type sinkFunc func(beacon.Event) error

func (f sinkFunc) Submit(e beacon.Event) error { return f(e) }
