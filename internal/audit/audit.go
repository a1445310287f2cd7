// Package audit verifies the internal consistency of a beacon stream.
//
// The paper's core argument is that viewability measurement should be
// *transparent and auditable* (§1, §8): because Q-Tag's algorithm and
// event protocol are public, anyone holding the beacon log can check that
// the reported numbers are even possible. This package is that auditor.
// It replays a store's events per impression and flags:
//
//   - protocol violations — measurement events for impressions the DSP
//     never served, in-view without a tag check-in, out-of-view cycles
//     without their in-view. These are the outstanding sequence
//     violations of the lifecycle table (internal/lifecycle) the
//     streaming detectors run, so the auditor and internal/detect apply
//     one rule set and count the same findings;
//   - physically impossible timings — an in-view beacon earlier than
//     (loaded + the standard's dwell) cannot result from a correct tag
//     and indicates spoofed beacons or a broken clock;
//   - ordering violations — event timestamps contradicting the protocol
//     state machine.
//
// A clean production pipeline (including every simulator in this
// repository) audits clean; the tests inject each violation class and
// assert it is caught.
package audit

import (
	"fmt"
	"sort"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/lifecycle"
	"qtag/internal/viewability"
)

// FindingKind classifies an audit finding.
type FindingKind int

// Finding kinds.
const (
	// OrphanMeasurement: tag events for an impression with no served log.
	OrphanMeasurement FindingKind = iota
	// InViewWithoutLoaded: viewability reported by a tag that never
	// checked in.
	InViewWithoutLoaded
	// OutOfViewWithoutInView: a visibility-loss cycle (Seq) with no
	// in-view of the same cycle — one finding per unpaired cycle.
	OutOfViewWithoutInView
	// ImpossibleDwell: in-view earlier than loaded + the standard's
	// minimum dwell — no correct tag can produce this.
	ImpossibleDwell
	// OrderViolation: timestamps contradict the protocol order
	// (loaded ≤ in-view ≤ out-of-view).
	OrderViolation
)

// String implements fmt.Stringer.
func (k FindingKind) String() string {
	switch k {
	case OrphanMeasurement:
		return "orphan-measurement"
	case InViewWithoutLoaded:
		return "in-view-without-loaded"
	case OutOfViewWithoutInView:
		return "out-of-view-without-in-view"
	case ImpossibleDwell:
		return "impossible-dwell"
	case OrderViolation:
		return "order-violation"
	default:
		return fmt.Sprintf("FindingKind(%d)", int(k))
	}
}

// Finding is one detected inconsistency.
type Finding struct {
	Kind         FindingKind
	CampaignID   string
	ImpressionID string
	Source       beacon.Source
	Detail       string
}

// String implements fmt.Stringer.
func (f Finding) String() string {
	return fmt.Sprintf("%s camp=%s imp=%s src=%s: %s",
		f.Kind, f.CampaignID, f.ImpressionID, f.Source, f.Detail)
}

// Report is the outcome of an audit.
type Report struct {
	// Impressions is the number of distinct impressions examined.
	Impressions int
	// CleanImpressions had no findings.
	CleanImpressions int
	// Findings lists every inconsistency, deterministically ordered.
	Findings []Finding
	// ByKind counts findings per kind.
	ByKind map[FindingKind]int
}

// Clean reports whether the stream audits clean.
func (r *Report) Clean() bool { return len(r.Findings) == 0 }

// String implements fmt.Stringer.
func (r *Report) String() string {
	if r.Clean() {
		return fmt.Sprintf("audit: %d impressions, all clean", r.Impressions)
	}
	return fmt.Sprintf("audit: %d impressions, %d findings (%d clean)",
		r.Impressions, len(r.Findings), r.CleanImpressions)
}

// Options tunes the audit.
type Options struct {
	// MinDwell is the minimum believable loaded→in-view delay; when zero
	// it defaults per impression from the event's Format metadata via the
	// IAB/MRC standard (1 s display, 2 s video), with a small tolerance
	// for sampling granularity.
	MinDwell time.Duration
	// DwellTolerance absorbs tag sampling granularity (default 150 ms —
	// one and a half 100 ms sampling windows).
	DwellTolerance time.Duration
}

func (o Options) withDefaults() Options {
	if o.DwellTolerance == 0 {
		o.DwellTolerance = 150 * time.Millisecond
	}
	return o
}

// impressionKey groups events per (campaign, impression).
type impressionKey struct {
	campaign   string
	impression string
}

// Run audits every impression in the store.
func Run(store *beacon.Store, opts Options) *Report {
	opts = opts.withDefaults()
	// One lifecycle table over the whole log, TTL disabled: after the
	// last event its outstanding violations are the protocol findings.
	table := lifecycle.New(lifecycle.Options{TTL: -1}, nil)
	groups := map[impressionKey][]beacon.Event{}
	for _, e := range store.Events() {
		table.Observe(e, time.Time{})
		k := impressionKey{campaign: e.CampaignID, impression: e.ImpressionID}
		groups[k] = append(groups[k], e)
	}
	keys := make([]impressionKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].campaign != keys[j].campaign {
			return keys[i].campaign < keys[j].campaign
		}
		return keys[i].impression < keys[j].impression
	})

	rep := &Report{ByKind: map[FindingKind]int{}}
	for _, k := range keys {
		rep.Impressions++
		findings := auditImpression(k, table.Lookup(k.campaign, k.impression), groups[k], opts)
		if len(findings) == 0 {
			rep.CleanImpressions++
		}
		for _, f := range findings {
			rep.Findings = append(rep.Findings, f)
			rep.ByKind[f.Kind]++
		}
	}
	return rep
}

// auditImpression checks one impression: the protocol findings come
// from its lifecycle state im, the timing findings from the earliest
// event of each type per source in its event set.
func auditImpression(k impressionKey, im *lifecycle.Impression, events []beacon.Event, opts Options) []Finding {
	var findings []Finding
	add := func(kind FindingKind, src beacon.Source, detail string) {
		findings = append(findings, Finding{
			Kind: kind, CampaignID: k.campaign, ImpressionID: k.impression,
			Source: src, Detail: detail,
		})
	}

	perSource := map[beacon.Source]map[beacon.EventType]beacon.Event{}
	var format string
	for _, e := range events {
		if e.Meta.Format != "" {
			format = e.Meta.Format
		}
		if e.Type == beacon.EventServed {
			continue
		}
		m := perSource[e.Source]
		if m == nil {
			m = map[beacon.EventType]beacon.Event{}
			perSource[e.Source] = m
		}
		// Keep the earliest event of each type (Seq 0 cycle).
		if prev, ok := m[e.Type]; !ok || e.At.Before(prev.At) {
			m[e.Type] = e
		}
	}

	sources := make([]beacon.Source, 0, len(perSource))
	for src := range perSource {
		sources = append(sources, src)
	}
	sort.Slice(sources, func(i, j int) bool { return sources[i] < sources[j] })

	for _, src := range sources {
		st := im.Source(src)
		if !im.Served {
			add(OrphanMeasurement, src, "tag events without a served log")
		}
		if st.Viewed && !st.Loaded {
			add(InViewWithoutLoaded, src, "viewability reported by a tag that never checked in")
		}
		unpaired := st.UnpairedOut()
		sort.Ints(unpaired)
		for _, seq := range unpaired {
			add(OutOfViewWithoutInView, src, fmt.Sprintf("out-of-view cycle %d without its in-view", seq))
		}

		m := perSource[src]
		loaded, hasLoaded := m[beacon.EventLoaded]
		inView, hasInView := m[beacon.EventInView]
		outView, hasOut := m[beacon.EventOutOfView]
		if hasLoaded && hasInView && !loaded.At.IsZero() && !inView.At.IsZero() {
			if inView.At.Before(loaded.At) {
				add(OrderViolation, src, fmt.Sprintf("in-view at %v precedes loaded at %v",
					inView.At.Format(time.RFC3339Nano), loaded.At.Format(time.RFC3339Nano)))
			} else {
				minDwell := opts.MinDwell
				if minDwell == 0 {
					minDwell = dwellForFormat(format)
				}
				if gap := inView.At.Sub(loaded.At); gap+opts.DwellTolerance < minDwell {
					add(ImpossibleDwell, src, fmt.Sprintf(
						"in-view %v after loaded; the standard requires ≥%v continuous exposure",
						gap, minDwell))
				}
			}
		}
		if hasInView && hasOut && !inView.At.IsZero() && !outView.At.IsZero() &&
			outView.At.Before(inView.At) {
			add(OrderViolation, src, "out-of-view precedes in-view")
		}
	}
	return findings
}

func dwellForFormat(format string) time.Duration {
	switch format {
	case "video":
		return viewability.StandardCriteria(viewability.Video).Dwell
	case "large-display":
		return viewability.StandardCriteria(viewability.LargeDisplay).Dwell
	default:
		return viewability.StandardCriteria(viewability.Display).Dwell
	}
}
