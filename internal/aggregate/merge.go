package aggregate

import "qtag/internal/beacon"

// Merge combines per-node report snapshots into one cluster-wide
// snapshot — the federation step behind GET /report?federated=1.
//
// The merge is sound because the cluster's consistent-hash routing
// partitions impressions across nodes: every impression (and therefore
// every row contribution) is owned by exactly one node, so the counts
// are disjoint and simply add. Rates are recomputed from the merged
// counts, never averaged — averaging per-node rates would weight small
// partitions equally with large ones. Dwell histograms add bucket-wise
// when their bounds agree (the cluster runs one configuration); on a
// bounds mismatch the buckets of the later snapshot are dropped but its
// Count/SumNs still contribute, so totals stay exact even if the shape
// degrades.
//
// Merge is associative and commutative up to ordering, and the result
// is deterministically sorted like Aggregator.Snapshot — merging the
// same set of snapshots in any order yields DeepEqual results.
func Merge(snaps ...Snapshot) Snapshot {
	type rowKey struct{ campaign, format string }
	type dwellKey struct{ campaign, source string }
	rows := make(map[rowKey]*Row)
	dwell := make(map[dwellKey]*DwellSnapshot)

	for _, s := range snaps {
		for _, r := range s.Rows {
			k := rowKey{r.CampaignID, r.Format}
			acc, ok := rows[k]
			if !ok {
				acc = &Row{CampaignID: r.CampaignID, Format: r.Format, Sources: map[string]SourceCounts{}}
				rows[k] = acc
			}
			acc.Impressions += r.Impressions
			acc.Served += r.Served
			for src, c := range r.Sources {
				sc := acc.Sources[src]
				sc.Measured += c.Measured
				sc.Viewed += c.Viewed
				sc.NotViewed += c.NotViewed
				sc.NotMeasured += c.NotMeasured
				acc.Sources[src] = sc
			}
		}
		for _, d := range s.Dwell {
			k := dwellKey{d.CampaignID, d.Source}
			acc, ok := dwell[k]
			if !ok {
				cp := d.Dwell
				cp.Buckets = append([]int64(nil), d.Dwell.Buckets...)
				cp.Bounds = append([]float64(nil), d.Dwell.Bounds...)
				dwell[k] = &cp
				continue
			}
			acc.Count += d.Dwell.Count
			acc.SumNs += d.Dwell.SumNs
			if boundsEqual(acc.Bounds, d.Dwell.Bounds) {
				for i := range d.Dwell.Buckets {
					acc.Buckets[i] += d.Dwell.Buckets[i]
				}
			}
		}
	}

	var out Snapshot
	for _, r := range rows {
		// A source missing from one partition's row means that partition
		// measured nothing for it; its not-measured share is implicit in
		// the partition's own NotMeasured export, which every canonical
		// source carries. Recompute the rates from the merged counts.
		for src, sc := range r.Sources {
			sc.MeasuredRate = beacon.Rate(sc.Measured, r.Served)
			sc.ViewabilityRate = beacon.Rate(sc.Viewed, sc.Measured)
			r.Sources[src] = sc
		}
		out.Rows = append(out.Rows, *r)
	}
	for k, d := range dwell {
		out.Dwell = append(out.Dwell, DwellRow{CampaignID: k.campaign, Source: k.source, Dwell: *d})
	}
	out.sort()
	return out
}

func boundsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
