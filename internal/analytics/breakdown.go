package analytics

import (
	"fmt"
	"sort"
	"time"

	"qtag/internal/beacon"
)

// Dimension selects an attribute to break measurement rates down by.
type Dimension int

// Breakdown dimensions.
const (
	// ByExchange groups by the ad exchange that carried the impression
	// (the §5 dataset spans eight exchanges).
	ByExchange Dimension = iota
	// ByCountry groups by the campaign's target country.
	ByCountry
	// ByOS groups by operating system.
	ByOS
	// BySiteType groups by browser vs in-app webview.
	BySiteType
	// ByAdSize groups by creative size (300×250 vs 320×50 in §5).
	ByAdSize
)

// String implements fmt.Stringer.
func (d Dimension) String() string {
	switch d {
	case ByExchange:
		return "exchange"
	case ByCountry:
		return "country"
	case ByOS:
		return "os"
	case BySiteType:
		return "site-type"
	case ByAdSize:
		return "ad-size"
	default:
		return fmt.Sprintf("Dimension(%d)", int(d))
	}
}

func (d Dimension) keyOf(k beacon.CounterKey) (string, bool) {
	switch d {
	case ByExchange:
		return k.Exchange, k.Exchange != ""
	case ByCountry:
		return k.Country, k.Country != ""
	case ByOS:
		return k.OS, k.OS != ""
	case BySiteType:
		return k.SiteType, k.SiteType != ""
	default:
		return "", false
	}
}

func (d Dimension) keyOfEvent(e beacon.Event) (string, bool) {
	switch d {
	case ByExchange:
		return e.Meta.Exchange, e.Meta.Exchange != ""
	case ByCountry:
		return e.Meta.Country, e.Meta.Country != ""
	case ByOS:
		return e.Meta.OS, e.Meta.OS != ""
	case BySiteType:
		return e.Meta.SiteType, e.Meta.SiteType != ""
	case ByAdSize:
		return e.Meta.AdSize, e.Meta.AdSize != ""
	default:
		return "", false
	}
}

// SliceRates is one group of a dimensional breakdown.
type SliceRates struct {
	Key        string
	Served     int
	QTag       float64 // measured rate
	Commercial float64 // measured rate
	QTagView   float64 // viewability rate of Q-Tag-measured impressions
}

// BreakdownBy computes measured rates grouped by a dimension, sorted by
// key. Exchange, country, OS and site type read the store's counters;
// ByAdSize is not a counter dimension, so it scans the raw events.
func BreakdownBy(store *beacon.Store, dim Dimension) []SliceRates {
	if dim == ByAdSize {
		return breakdownFromEvents(store, dim)
	}
	acc := map[string]*sliceCounts{}
	for k, n := range store.Counters() {
		if key, ok := dim.keyOf(k); ok {
			tally(acc, key).add(k.Type, k.Source, n)
		}
	}
	return finishSlices(acc)
}

func breakdownFromEvents(store *beacon.Store, dim Dimension) []SliceRates {
	acc := map[string]*sliceCounts{}
	for _, e := range store.Events() {
		if key, ok := dim.keyOfEvent(e); ok {
			tally(acc, key).add(e.Type, e.Source, 1)
		}
	}
	return finishSlices(acc)
}

// sliceCounts accumulates the raw event counts behind one slice: served
// events, loaded check-ins per solution, and Q-Tag in-views.
type sliceCounts struct{ served, qtag, comm, qview int }

// tally returns (creating if needed) the counts for key.
func tally[K comparable](acc map[K]*sliceCounts, key K) *sliceCounts {
	c := acc[key]
	if c == nil {
		c = &sliceCounts{}
		acc[key] = c
	}
	return c
}

// add counts n events of one type and source.
func (c *sliceCounts) add(typ beacon.EventType, src beacon.Source, n int) {
	switch {
	case typ == beacon.EventServed:
		c.served += n
	case typ == beacon.EventLoaded && src == beacon.SourceQTag:
		c.qtag += n
	case typ == beacon.EventLoaded && src == beacon.SourceCommercial:
		c.comm += n
	case typ == beacon.EventInView && src == beacon.SourceQTag:
		c.qview += n
	}
}

func finishSlices(acc map[string]*sliceCounts) []SliceRates {
	out := make([]SliceRates, 0, len(acc))
	for key, c := range acc {
		out = append(out, SliceRates{
			Key:        key,
			Served:     c.served,
			QTag:       beacon.Rate(c.qtag, c.served),
			Commercial: beacon.Rate(c.comm, c.served),
			QTagView:   beacon.Rate(c.qview, c.qtag),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Bucket is one interval of a measurement-rate time series.
type Bucket struct {
	Start  time.Time
	Served int
	QTag   float64 // measured rate in the bucket
	InView float64 // Q-Tag viewability rate in the bucket
}

// TimeSeries buckets served/measured/in-view events by their timestamps —
// the monitoring view a DSP watches during a live campaign. Events with a
// zero timestamp are ignored. Width must be positive.
func TimeSeries(store *beacon.Store, width time.Duration) []Bucket {
	if width <= 0 {
		panic("analytics: TimeSeries needs a positive bucket width")
	}
	acc := map[int64]*sliceCounts{}
	for _, e := range store.Events() {
		if !e.At.IsZero() {
			tally(acc, e.At.UnixNano()/int64(width)).add(e.Type, e.Source, 1)
		}
	}
	slots := make([]int64, 0, len(acc))
	for s := range acc {
		slots = append(slots, s)
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	out := make([]Bucket, 0, len(slots))
	for _, s := range slots {
		c := acc[s]
		out = append(out, Bucket{
			Start:  time.Unix(0, s*int64(width)).UTC(),
			Served: c.served,
			QTag:   beacon.Rate(c.qtag, c.served),
			InView: beacon.Rate(c.qview, c.qtag),
		})
	}
	return out
}
