package main

import (
	"math"
	"sort"
	"time"

	"github.com/crowd4u/crowd4u-go/internal/wal"
)

// metric is one reported number. n is the sample count behind it; ok is
// false for a percentile with fewer than minBeyond samples beyond it, which
// is printed as unsupported and left out of result files.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	ok    bool
}

func count(name string, v float64, unit string, n int) metric {
	return metric{name: name, value: v, unit: unit, n: n, ok: true}
}

func quantile(name string, xs []float64, q float64, unit string) metric {
	v, ok := newDist(xs).pct(q)
	return metric{name: name, value: v, unit: unit, n: len(xs), ok: ok}
}

// ratio divides, reading 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }

func nsToUs(ns int64) float64 { return float64(ns) / 1e3 }

// endToEnd are the end-to-end metrics BENCHMARK.json lists with their
// regression bounds: the ones that repeated on every workload on the
// recording host. e2e reports the others too, and -compare judges them with
// the bounds in baseline.json.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"answer_fixpoint_p50_ms", "ms"},
	{"answer_fixpoint_p95_ms", "ms"},
}

// e2e computes the end-to-end metrics of an untraced pass: what a crowd
// worker or requester sees. Tails are p95, the highest percentile every
// workload's window supports.
func (ps *pass) e2e() []metric {
	var fix, ack, feed []float64
	var window time.Duration // until the last answer resolved
	for _, a := range ps.answers {
		ack = append(ack, ms(a.ack.Sub(a.t0)))
		if !a.fixpoint.IsZero() {
			fix = append(fix, ms(a.fixpoint.Sub(a.t0)))
			window = max(window, a.fixpoint.Sub(ps.start))
		}
	}
	for _, d := range ps.feeds {
		feed = append(feed, ms(d))
	}
	setups := make([]float64, len(ps.setups))
	for i, d := range ps.setups {
		setups[i] = d.Seconds()
	}
	out := []metric{
		count("setup_s", median(setups), "s", len(setups)),
		quantile("answer_fixpoint_p50_ms", fix, 0.50, "ms"),
		quantile("answer_fixpoint_p95_ms", fix, 0.95, "ms"),
		count("answers_per_s", ratio(float64(len(fix)), window.Seconds()), "1/s", len(fix)),
		quantile("ack_p50_ms", ack, 0.50, "ms"),
		quantile("ack_p95_ms", ack, 0.95, "ms"),
		quantile("feed_p50_ms", feed, 0.50, "ms"),
		quantile("feed_p95_ms", feed, 0.95, "ms"),
		count("live_heap_mib", ps.heapMiB, "MiB", 1),
		count("failed_ratio", ratio(float64(ps.failures()), float64(ps.requests)), "share", ps.requests),
	}
	if ps.w.durable {
		written := ps.walAfter.AppendedBytes - ps.walBefore.AppendedBytes + ps.bsAfter.SegmentBytes - ps.bsBefore.SegmentBytes
		out = append(out,
			count("recover_s", ps.recoverDur.Seconds(), "s", 1),
			count("storage_bytes_per_answer", ratio(float64(written), float64(len(ps.answers))), "bytes", len(ps.answers)))
	}
	return out
}

// perLayer are the per-layer metrics of a traced pass that exist on every
// workload; BENCHMARK.json lists the same names. Tails of per-request
// samples are p95, as end to end; those of commit-level spans are p90, the
// highest a run's few hundred commits support.
var perLayer = []struct{ name, unit string }{
	{"gen.lag_p95_ms", "ms"},
	{"api.answer_handler_p50_us", "us"},
	{"api.answer_handler_p95_us", "us"},
	{"api.feed_handler_p50_us", "us"},
	{"api.feed_handler_p95_us", "us"},
	{"api.fact_handler_p95_us", "us"},
	{"api.transport_p50_us", "us"},
	{"api.rejected_429", "count"},
	{"api.errors", "count"},
	{"api.requests_per_answer", "ratio"},
	{"platform.round_wait_p50_ms", "ms"},
	{"platform.round_wait_p95_ms", "ms"},
	{"platform.commit_p50_ms", "ms"},
	{"platform.commit_p90_ms", "ms"},
	{"platform.commits", "count"},
	{"platform.answers_per_commit_p50", "count"},
	{"platform.lock_blocked_share", "share"},
	{"platform.skipped_answers", "count"},
	{"cylog.run_p50_ms", "ms"},
	{"cylog.run_p90_ms", "ms"},
	{"cylog.rederived_per_answer", "ratio"},
	{"cylog.retracted_per_answer", "ratio"},
	{"cylog.derived_per_answer", "ratio"},
	{"cylog.rule_evaluations_per_commit", "ratio"},
	{"cylog.full_scans_per_commit", "ratio"},
	{"cylog.index_hit_ratio", "share"},
	{"cylog.plan_cache_hit_ratio", "share"},
	{"cylog.pending_requests_end", "count"},
	{"wal.syncs_per_commit", "ratio"},
	{"wal.bytes_per_answer", "bytes"},
	{"wal.compressed_share", "share"},
	{"wal.snapshots", "count"},
	{"relstore.faults_per_commit", "ratio"},
	{"relstore.evictions_per_commit", "ratio"},
	{"relstore.segment_bytes_per_answer", "bytes"},
	{"relstore.resident_bytes_max", "bytes"},
	{"hub.fanout_p50_ms", "ms"},
	{"hub.fanout_p90_ms", "ms"},
	{"hub.events_per_commit", "ratio"},
	{"trace.unexplained_share", "share"},
	{"trace.overhead_ratio", "ratio"},
}

// layers computes the per-layer metrics of a traced pass. untracedP50 is
// answer_fixpoint_p50_ms of the untraced pass run just before it. On the
// durable workload the WAL and relstore span timings are reported too;
// they do not exist on the memory workloads.
func (ps *pass) layers(tr *tracer, untracedP50 float64) []metric {
	// durations of the named spans, in units of per nanoseconds.
	durations := func(name string, per float64) []float64 {
		var xs []float64
		for _, s := range tr.byName(name) {
			xs = append(xs, float64(s.dur())/per)
		}
		return xs
	}
	durUs := func(name string) []float64 { return durations(name, 1e3) }
	durMs := func(name string) []float64 { return durations(name, 1e6) }

	var lags []float64
	for _, d := range ps.lags {
		lags = append(lags, ms(d))
	}

	// Transport: each client span's self time once its handler span is
	// taken out.
	handlers := map[uint64]span{}
	for _, k := range []string{"feed", "answer", "fact", "other"} {
		for _, s := range tr.byName("api." + k) {
			handlers[s.Op] = s
		}
	}
	var transport []float64
	for _, k := range []string{"feed", "answer", "fact"} {
		for _, c := range tr.byName("client." + k) {
			if h, ok := handlers[c.Op]; ok {
				transport = append(transport, nsToUs(selfTime(c, []span{h})))
			}
		}
	}

	tr.mu.Lock()
	commits := append([]commitRec(nil), tr.commits...)
	tr.mu.Unlock()
	byRound := make(map[uint64]commitRec, len(commits))
	var commitSpans []span
	var perCommit []float64
	var sum struct {
		answers, skipped, derived, retracted, rederived, rules, scans, probes, hits, planHits, planMisses int
		resident                                                                                          int64
	}
	for _, c := range commits {
		byRound[c.round] = c
		commitSpans = append(commitSpans, span{Start: c.start, End: c.end})
		perCommit = append(perCommit, float64(c.answers))
		sum.answers += c.answers
		sum.skipped += c.skipped
		sum.derived += c.stats.DerivedFacts
		sum.retracted += c.stats.RetractedTuples
		sum.rederived += c.stats.ReDerivedTuples
		sum.rules += c.stats.RuleEvaluations
		sum.scans += c.stats.FullScans
		sum.probes += c.stats.IndexProbes
		sum.hits += c.stats.IndexHits
		sum.planHits += c.stats.PlanCacheHits
		sum.planMisses += c.stats.PlanCacheMisses
		sum.resident = max(sum.resident, c.resident)
	}
	sort.Slice(commitSpans, func(i, j int) bool { return commitSpans[i].Start < commitSpans[j].Start })
	blocked, handled := 0, 0
	for _, k := range []string{"answer", "feed"} {
		for _, s := range tr.byName("api." + k) {
			handled++
			if overlapsAny(s, commitSpans) {
				blocked++
			}
		}
	}

	var wait, fix, residual []float64
	for _, a := range ps.answers {
		c, ok := byRound[a.round]
		if !ok || a.fixpoint.IsZero() {
			continue
		}
		total, s := answerSteps(a, c, tr.ns)
		wait = append(wait, nsToMs(s.wait))
		fix = append(fix, nsToMs(total))
		residual = append(residual, nsToMs(total-s.sum()))
	}

	n := float64(len(ps.answers))
	commitsN := float64(len(commits))
	walD := walDelta(ps.walAfter, ps.walBefore)
	out := []metric{
		quantile("gen.lag_p95_ms", lags, 0.95, "ms"),
		quantile("api.answer_handler_p50_us", durUs("api.answer"), 0.50, "us"),
		quantile("api.answer_handler_p95_us", durUs("api.answer"), 0.95, "us"),
		quantile("api.feed_handler_p50_us", durUs("api.feed"), 0.50, "us"),
		quantile("api.feed_handler_p95_us", durUs("api.feed"), 0.95, "us"),
		quantile("api.fact_handler_p95_us", durUs("api.fact"), 0.95, "us"),
		quantile("api.transport_p50_us", transport, 0.50, "us"),
		count("api.rejected_429", float64(ps.rejected), "count", ps.requests),
		count("api.errors", float64(ps.failed-ps.rejected), "count", ps.requests),
		count("api.requests_per_answer", ratio(float64(ps.requests), n), "ratio", ps.requests),
		quantile("platform.round_wait_p50_ms", wait, 0.50, "ms"),
		quantile("platform.round_wait_p95_ms", wait, 0.95, "ms"),
		quantile("platform.commit_p50_ms", durMs("platform.commit"), 0.50, "ms"),
		quantile("platform.commit_p90_ms", durMs("platform.commit"), 0.90, "ms"),
		count("platform.commits", commitsN, "count", len(commits)),
		quantile("platform.answers_per_commit_p50", perCommit, 0.50, "count"),
		count("platform.lock_blocked_share", ratio(float64(blocked), float64(handled)), "share", handled),
		count("platform.skipped_answers", float64(sum.skipped), "count", sum.answers),
		quantile("cylog.run_p50_ms", durMs("cylog.run"), 0.50, "ms"),
		quantile("cylog.run_p90_ms", durMs("cylog.run"), 0.90, "ms"),
		count("cylog.rederived_per_answer", ratio(float64(sum.rederived), float64(sum.answers)), "ratio", sum.answers),
		count("cylog.retracted_per_answer", ratio(float64(sum.retracted), float64(sum.answers)), "ratio", sum.answers),
		count("cylog.derived_per_answer", ratio(float64(sum.derived), float64(sum.answers)), "ratio", sum.answers),
		count("cylog.rule_evaluations_per_commit", ratio(float64(sum.rules), commitsN), "ratio", len(commits)),
		count("cylog.full_scans_per_commit", ratio(float64(sum.scans), commitsN), "ratio", len(commits)),
		count("cylog.index_hit_ratio", ratio(float64(sum.hits), float64(sum.probes)), "share", sum.probes),
		count("cylog.plan_cache_hit_ratio", ratio(float64(sum.planHits), float64(sum.planHits+sum.planMisses)), "share", sum.planHits+sum.planMisses),
		count("cylog.pending_requests_end", float64(ps.pendingEnd), "count", 1),
		count("wal.syncs_per_commit", ratio(float64(walD.Syncs), commitsN), "ratio", len(commits)),
		count("wal.bytes_per_answer", ratio(float64(walD.AppendedBytes), n), "bytes", len(ps.answers)),
		count("wal.compressed_share", ratio(float64(walD.CompressedAppends), float64(walD.Appends)), "share", walD.Appends),
		count("wal.snapshots", float64(walD.Snapshots), "count", walD.Snapshots),
		count("relstore.faults_per_commit", ratio(float64(ps.bsAfter.Faults-ps.bsBefore.Faults), commitsN), "ratio", len(commits)),
		count("relstore.evictions_per_commit", ratio(float64(ps.bsAfter.Evictions-ps.bsBefore.Evictions), commitsN), "ratio", len(commits)),
		count("relstore.segment_bytes_per_answer", ratio(float64(ps.bsAfter.SegmentBytes-ps.bsBefore.SegmentBytes), n), "bytes", len(ps.answers)),
		count("relstore.resident_bytes_max", float64(sum.resident), "bytes", len(commits)),
		quantile("hub.fanout_p50_ms", durMs("hub.fanout"), 0.50, "ms"),
		quantile("hub.fanout_p90_ms", durMs("hub.fanout"), 0.90, "ms"),
		count("hub.events_per_commit", ratio(float64(ps.eventsAll-ps.eventsBefore), commitsN), "ratio", len(commits)),
		count("trace.unexplained_share", unexplained(fix, residual), "share", len(fix)),
		count("trace.overhead_ratio", ratio(median(fix), untracedP50), "ratio", len(fix)),
	}
	if ps.w.durable {
		out = append(out,
			quantile("wal.append_p50_ms", durMs("wal.append"), 0.50, "ms"),
			quantile("wal.append_p90_ms", durMs("wal.append"), 0.90, "ms"),
			count("wal.snapshot_mean_ms", mean(durMs("wal.snapshot")), "ms", len(durMs("wal.snapshot"))),
			quantile("relstore.maintain_p50_ms", durMs("relstore.maintain"), 0.50, "ms"),
			quantile("relstore.maintain_p90_ms", durMs("relstore.maintain"), 0.90, "ms"))
	}
	return out
}

// step holds the blocking steps between an answer's t0 and the arrival of
// its covering fixpoint event, in nanoseconds.
type step struct{ lag, rtt, wait, commit, fanout int64 }

func (s step) sum() int64 { return s.lag + s.rtt + s.wait + s.commit + s.fanout }

// answerSteps splits an answer's answer→fixpoint time into the steps that
// block it: generator lateness, client round trips, the wait from the 202
// to the start of its round's commit, the commit, and the fan-out from the
// fixpoint event to the client. ns maps a time onto the commit's clock.
func answerSteps(a answerRec, c commitRec, ns func(time.Time) int64) (total int64, s step) {
	ack, arrival := ns(a.ack), ns(a.fixpoint)
	s = step{lag: a.lag.Nanoseconds(), rtt: a.rtt.Nanoseconds(), wait: c.start - ack, commit: c.end - c.start, fanout: arrival - c.fixedAt}
	return arrival - ns(a.t0), s
}

// unexplained is the median per-answer residual — answer→fixpoint minus the
// sum of its blocking steps — as a share of the median answer→fixpoint.
func unexplained(fix, residual []float64) float64 {
	if len(fix) == 0 {
		return 0
	}
	return math.Abs(median(residual)) / median(fix)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// walDelta is the WAL activity between two snapshots of its counters.
func walDelta(after, before wal.Stats) wal.Stats {
	return wal.Stats{
		Appends:           after.Appends - before.Appends,
		AppendedBytes:     after.AppendedBytes - before.AppendedBytes,
		CompressedAppends: after.CompressedAppends - before.CompressedAppends,
		Syncs:             after.Syncs - before.Syncs,
		Snapshots:         after.Snapshots - before.Snapshots,
	}
}
