package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"

	"qtag/internal/beacon"
)

// Lifecycle bits a reference impression has seen.
const (
	seenServed = 1 << iota
	seenLoaded
	seenInView
	seenOutOfView
)

func typeBit(t beacon.EventType) uint8 {
	switch t {
	case beacon.EventServed:
		return seenServed
	case beacon.EventLoaded:
		return seenLoaded
	case beacon.EventInView:
		return seenInView
	default:
		return seenOutOfView
	}
}

// reference is the benchmark's own account of what the collector must
// hold, kept independently of the program's store and aggregates. The
// generated traffic has one event per (impression, type), all from the
// Q-Tag source, so a bit set per impression is an exact dedup.
type reference struct {
	imps map[string]*refImp
}

type refImp struct {
	campaign string
	seen     uint8
}

func newReference() *reference { return &reference{imps: make(map[string]*refImp)} }

func (r *reference) add(events []beacon.Event) {
	for _, e := range events {
		imp := r.imps[e.ImpressionID]
		if imp == nil {
			imp = &refImp{campaign: e.CampaignID}
			r.imps[e.ImpressionID] = imp
		}
		imp.seen |= typeBit(e.Type)
	}
}

// campaignCounts is one campaign's /report totals that the gate checks.
type campaignCounts struct {
	Impressions, Served, Measured, Viewed int64
}

func (r *reference) counts() (map[string]campaignCounts, int64) {
	out := make(map[string]campaignCounts)
	var events int64
	for _, imp := range r.imps {
		c := out[imp.campaign]
		c.Impressions++
		if imp.seen&seenServed != 0 {
			c.Served++
		}
		if imp.seen&seenLoaded != 0 {
			c.Measured++
		}
		if imp.seen&seenInView != 0 {
			c.Viewed++
		}
		out[imp.campaign] = c
		for b := imp.seen; b != 0; b &= b - 1 {
			events++
		}
	}
	return out, events
}

// fetchReport reads GET /report and sums its rows per campaign.
func fetchReport(url string) (map[string]campaignCounts, error) {
	resp, err := http.Get(url + "/report?windows=0")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("GET /report: %d %s", resp.StatusCode, b)
	}
	var rep struct {
		Campaigns struct {
			Rows []struct {
				CampaignID  string `json:"campaign_id"`
				Impressions int64  `json:"impressions"`
				Served      int64  `json:"served"`
				Sources     map[string]struct {
					Measured int64 `json:"measured"`
					Viewed   int64 `json:"viewed"`
				} `json:"sources"`
			} `json:"rows"`
		} `json:"campaigns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, fmt.Errorf("decode /report: %w", err)
	}
	out := make(map[string]campaignCounts)
	for _, row := range rep.Campaigns.Rows {
		c := out[row.CampaignID]
		c.Impressions += row.Impressions
		c.Served += row.Served
		q := row.Sources[string(beacon.SourceQTag)]
		c.Measured += q.Measured
		c.Viewed += q.Viewed
		out[row.CampaignID] = c
	}
	return out, nil
}

// fetchStoreEvents reads the distinct stored event count from /healthz.
func fetchStoreEvents(url string) (int64, error) {
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var h struct {
		Events int64 `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, fmt.Errorf("decode /healthz: %w", err)
	}
	return h.Events, nil
}

// checkRecovered is the ingest gate: every campaign count on the
// recovered server lies between what the acknowledged events imply (lo:
// acked ⊆ recovered) and what every attempted event implies (hi: no
// duplicates, nothing invented). With no failed request lo equals hi and
// the check is exact.
func checkRecovered(got map[string]campaignCounts, gotEvents int64, lo, hi *reference) error {
	loC, loE := lo.counts()
	hiC, hiE := hi.counts()
	if gotEvents < loE || gotEvents > hiE {
		return fmt.Errorf("recovered store holds %d events, want within [%d, %d]", gotEvents, loE, hiE)
	}
	ids := make([]string, 0, len(hiC))
	for id := range hiC {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for id := range got {
		if _, ok := hiC[id]; !ok {
			return fmt.Errorf("recovered report has campaign %s that was never sent", id)
		}
	}
	for _, id := range ids {
		g, l, h := got[id], loC[id], hiC[id]
		for _, f := range []struct {
			name      string
			g, lo, hi int64
		}{
			{"impressions", g.Impressions, l.Impressions, h.Impressions},
			{"served", g.Served, l.Served, h.Served},
			{"measured", g.Measured, l.Measured, h.Measured},
			{"viewed", g.Viewed, l.Viewed, h.Viewed},
		} {
			if f.g < f.lo || f.g > f.hi {
				return fmt.Errorf("campaign %s: recovered %s = %d, want within [%d, %d]", id, f.name, f.g, f.lo, f.hi)
			}
		}
	}
	return nil
}
