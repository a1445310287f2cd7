package campaign

import (
	"flag"
	"reflect"
	"testing"
	"time"

	"qtag/internal/browser"
	"qtag/internal/faults"
)

var oracleSeeds = flag.Int("oracle-seeds", 20,
	"seeds TestCountedCompositorMatchesPerFrame sweeps (make sim-oracle runs 500)")

// TestCountedCompositorMatchesPerFrame is the differential oracle of the
// counted compositor: the same simulation with every browser on the
// reference per-frame compositor must produce identical campaign results,
// beacons, impression records and lifecycle traces. Every seed runs with
// beacon faults, spread-out start times, adversaries, impression records
// and tracing on; two seeds in three also move the frame rate to 50 fps,
// where every Q-Tag sample and every second oracle sample shares its
// instant with a frame, and one in three adds a 25 fps hidden trickle.
func TestCountedCompositorMatchesPerFrame(t *testing.T) {
	for seed := 1; seed <= *oracleSeeds; seed++ {
		cfg := Config{
			Seed: uint64(seed), Campaigns: 5, ImpressionsPerCampaign: 24,
			BothCampaigns: 2, BothImpressionsFactor: 1.5, Parallelism: 2,
			RecordImpressions: true, TraceLifecycle: true,
			SpreadOver: 24 * time.Hour,
			TagFaults:  faults.Profile{Drop: 0.05, Duplicate: 0.05},
			Adversaries: []ActorSpec{
				{Kind: ActorSpoofedInView, CampaignID: "camp-spoof", Impressions: 8},
				{Kind: ActorReplayFarm, CampaignID: "camp-replay", Impressions: 4},
			},
		}
		run := func(perFrame bool) *Result {
			c := cfg
			c.browserOptions = func(o browser.Options) browser.Options {
				o.PerFrameCompositor = perFrame
				if seed%3 != 0 {
					o.Profile.RefreshRate = 50
				}
				if seed%3 == 2 {
					o.Profile.HiddenFPS = 25
				}
				return o
			}
			return New(c).Run()
		}
		counted, reference := run(false), run(true)
		if !reflect.DeepEqual(counted.Campaigns, reference.Campaigns) {
			t.Fatalf("seed %d: campaigns differ\n counted   %+v\n reference %+v", seed, counted.Campaigns, reference.Campaigns)
		}
		if !reflect.DeepEqual(counted.Store.Events(), reference.Store.Events()) {
			t.Fatalf("seed %d: stored beacons differ", seed)
		}
		if !reflect.DeepEqual(counted.Impressions, reference.Impressions) {
			t.Fatalf("seed %d: impression records differ", seed)
		}
		if a, b := counted.Trace.Summary(), reference.Trace.Summary(); a != b {
			t.Fatalf("seed %d: traces differ\n counted   %s\n reference %s", seed, a, b)
		}
	}
}
