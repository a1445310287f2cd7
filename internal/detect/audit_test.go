package detect

import (
	"reflect"
	"testing"
	"time"

	"qtag/internal/audit"
	"qtag/internal/beacon"
	"qtag/internal/campaign"
	"qtag/internal/faults"
	"qtag/internal/simrand"
)

// recorder is a sink that keeps every submission, duplicates included.
type recorder struct{ subs []beacon.Event }

func (r *recorder) Submit(e beacon.Event) error {
	r.subs = append(r.subs, e)
	return nil
}

// TestAuditAgreesWithDetect: the batch auditor and the streaming
// sequence detector apply one lifecycle rule set, so on the same log
// every (campaign, source) gets the same three protocol counts from
// both — orphan measurements vs beacons-without-served, in-view without
// loaded, and unpaired out-of-view cycles.
func TestAuditAgreesWithDetect(t *testing.T) {
	at := time.Unix(1700000000, 0).UTC()
	scenarios := map[string][]beacon.Event{
		// Two cycles lose visibility without ever reporting in-view:
		// two findings, one per cycle.
		"two-unpaired-out-of-view": {
			{ImpressionID: "i", CampaignID: "c", Type: beacon.EventServed, At: at},
			{ImpressionID: "i", CampaignID: "c", Source: beacon.SourceQTag, Type: beacon.EventLoaded, At: at},
			{ImpressionID: "i", CampaignID: "c", Source: beacon.SourceQTag, Type: beacon.EventOutOfView, At: at.Add(time.Second)},
			{ImpressionID: "i", CampaignID: "c", Source: beacon.SourceQTag, Type: beacon.EventOutOfView, Seq: 1, At: at.Add(2 * time.Second)},
		},
	}
	for _, kind := range []campaign.ActorKind{campaign.ActorHonest, campaign.ActorReplayFarm,
		campaign.ActorAdStacking, campaign.ActorHiddenIframe, campaign.ActorSpoofedInView,
		campaign.ActorDuplicateFlood} {
		rec := &recorder{}
		campaign.RunActor(campaign.ActorSpec{Kind: kind, CampaignID: "camp-" + string(kind)},
			simrand.New(7), rec, nil)
		scenarios["actor-"+string(kind)] = rec.subs
	}
	// Lossy honest delivery leaves every violation class behind.
	res := campaign.New(campaign.Config{Seed: 5, Campaigns: 4, ImpressionsPerCampaign: 80,
		BothCampaigns: 2, TagFaults: faults.Profile{Drop: 0.15}}).Run()
	scenarios["sim-fault-drop"] = res.Store.Events()

	for name, subs := range scenarios {
		det := New(Options{TTL: -1})
		store := beacon.NewStore()
		store.AddObserver(det.Observe)
		store.AddDupObserver(det.ObserveDup)
		for _, e := range subs {
			_ = store.Submit(e)
		}

		fromAudit := map[rowKey][3]int64{}
		for _, f := range audit.Run(store, audit.Options{}).Findings {
			k := rowKey{f.CampaignID, sourceLabel(f.Source)}
			c := fromAudit[k]
			switch f.Kind {
			case audit.OrphanMeasurement:
				c[0]++
			case audit.InViewWithoutLoaded:
				c[1]++
			case audit.OutOfViewWithoutInView:
				c[2]++
			default:
				continue
			}
			fromAudit[k] = c
		}
		fromDetect := map[rowKey][3]int64{}
		for i := range det.camps {
			for k, r := range det.camps[i].rows {
				if c := [3]int64{r.seqNoServe, r.seqNoLoad, r.seqOrphanOut}; c != ([3]int64{}) {
					fromDetect[k] = c
				}
			}
		}
		if !reflect.DeepEqual(fromAudit, fromDetect) {
			t.Errorf("%s: audit %v != detect %v", name, fromAudit, fromDetect)
		}
		if name == "two-unpaired-out-of-view" && fromDetect[rowKey{"c", "qtag"}][2] != 2 {
			t.Errorf("%s: want 2 unpaired cycles, got %v", name, fromDetect)
		}
	}
}
