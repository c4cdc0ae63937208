package main

import (
	"repro/internal/crowd"
	"repro/internal/serve"
)

// crowdCalls are the crowd.Platform calls the taps count, by span name.
var crowdCalls = []string{"value", "value_batch", "value_batch_multi", "value_detailed", "examples", "dismantle", "verify"}

// queryModes are the statement classes whose latency is reported per mode.
var queryModes = []string{"eager", "filter", "lazy", "topk", "adaptive", "sharded"}

// tierLayers derives the per-layer metrics of a traced tier run from the
// recorded spans and the tier's counters before and after the window. It
// also returns which session each linked fork belongs to.
func (e *tierEnv) tierLayers(all []served, before, after serve.Stats) (map[string]float64, map[int64]int64) {
	L := map[string]float64{}
	spans, forks := e.rec.snapshot()
	if len(all) == 0 {
		return L, nil
	}

	// Sessions, and the forks and builds that belong to them.
	refs := make([]sessionRef, len(all))
	t0 := e.rec.at(all[0].start)
	for i, s := range all {
		objs := make(map[int]struct{}, len(s.req.ObjectIDs))
		for _, id := range s.req.ObjectIDs {
			objs[id] = struct{}{}
		}
		refs[i] = sessionRef{id: int64(i), start: e.rec.at(s.start), end: e.rec.at(s.end), objs: objs,
			buildsPlan: s.res != nil && !s.res.CacheHit}
		t0 = min(t0, refs[i].start)
	}
	var windowForks []*fork
	for _, f := range forks {
		if f.created >= t0 {
			windowForks = append(windowForks, f)
		}
	}
	links := linkForks(windowForks, refs)

	crowdIv := make([][][2]int64, len(all))
	var nCrowd, linked, unlinked, items int
	calls := map[string]int{}
	for _, sp := range spans {
		if sp.kind != kCrowd || sp.start < t0 {
			continue
		}
		nCrowd++
		items += sp.items
		calls[sp.call]++
		if sid, ok := links[sp.owner]; ok {
			crowdIv[sid] = append(crowdIv[sid], [2]int64{sp.start, sp.end})
			linked++
		} else {
			unlinked++
		}
	}
	buildIv := make([][][2]int64, len(all))
	var builds []builtPlan
	var buildQs int64
	e.builds.mu.Lock()
	unlinked += e.builds.unknown
	for _, b := range e.builds.builds {
		if b.end < t0 {
			continue
		}
		builds = append(builds, b)
		for _, p := range b.phases {
			buildQs += int64(p.Questions)
		}
		owner, n := 0, 0
		for i, s := range all {
			if s.res != nil && !s.res.CacheHit && refs[i].start <= b.end && b.end <= refs[i].end {
				owner, n = i, n+1
			}
		}
		if n == 1 {
			buildIv[owner] = append(buildIv[owner], b.interval())
		} else {
			unlinked++
		}
	}
	e.builds.mu.Unlock()

	// Self and wait time along each session's blocking path.
	var selfs, buildLats []float64
	var crowdWait, wall float64
	perMode := map[string][]float64{}
	var lazyBudget, lazySkipped, lazyPruned, lazyN, adaBudget, adaSaved, objects float64
	for i, s := range all {
		if s.res == nil {
			continue
		}
		r := refs[i]
		dur := float64(r.end - r.start)
		wait := float64(unionLen(crowdIv[i], r.start, r.end))
		blocked := unionLen(append(append([][2]int64(nil), crowdIv[i]...), buildIv[i]...), r.start, r.end)
		selfs = append(selfs, (dur-float64(blocked))/1e6)
		crowdWait += wait
		wall += dur
		perMode[s.class] = append(perMode[s.class], ms(s.lat))
		if !s.res.CacheHit {
			buildLats = append(buildLats, ms(s.lat))
		}
		n := float64(len(s.req.ObjectIDs))
		objects += n
		plan, ok := e.tier.CachedPlan(s.req.Statement, s.req.BObj, s.req.BPrc)
		if !ok {
			continue
		}
		budget := float64(planAnswers(plan)) * n
		if s.res.Lazy {
			lazyBudget += budget
			lazySkipped += float64(s.res.QuestionsSkipped)
			lazyPruned += float64(s.res.ObjectsPruned)
			lazyN++
		}
		if s.res.Adaptive {
			adaBudget += budget
			adaSaved += float64(s.res.QuestionsSaved)
		}
	}
	sessions := float64(len(selfs))

	L["serve.session_self_ms"] = median(selfs)
	L["serve.plan_build_ms"] = median(buildLats)
	pc := func(h, m int64) float64 { return ratio(float64(h), float64(h+m)) }
	L["serve.plan_cache.hit_ratio"] = pc(after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses)
	L["serve.plan_cache.inflight_waits"] = float64(after.Cache.InflightWaits - before.Cache.InflightWaits)
	ac, ab := after.AnswerCache, before.AnswerCache
	L["serve.answer_cache.hit_ratio"] = pc(ac.Hits-ab.Hits, ac.Misses-ab.Misses)
	L["serve.answer_cache.inflight_waits"] = float64(ac.InflightWaits - ab.InflightWaits)
	L["serve.answer_cache.evictions"] = float64(ac.Evictions - ab.Evictions)
	var queued, rejected int64
	for name, c := range after.Classes {
		queued += c.Queued - before.Classes[name].Queued
		rejected += c.Rejected - before.Classes[name].Rejected
	}
	L["serve.admission.queued"] = float64(queued)
	L["serve.admission.rejected"] = float64(rejected)
	var qMax, qSum float64
	for i, b := range after.Backends {
		d := float64(b.QuestionsAnswered - before.Backends[i].QuestionsAnswered)
		qMax = max(qMax, d)
		qSum += d
	}
	L["serve.backend.questions_max_over_mean"] = ratio(qMax, qSum/float64(len(after.Backends)))

	for _, m := range queryModes {
		L["query.mode."+m+".session_p50_ms"] = median(perMode[m])
	}
	var asked int64
	for _, f := range windowForks {
		asked += ledgerAsked(f.p.Ledger())
	}
	L["query.questions_per_object"] = ratio(float64(asked-buildQs), objects)
	L["query.lazy.skipped_ratio"] = ratio(lazySkipped, lazyBudget)
	L["query.lazy.objects_pruned"] = ratio(lazyPruned, lazyN)
	L["query.adaptive.saved_ratio"] = ratio(adaSaved, adaBudget)
	phaseLayers(builds, L)

	L["crowd.round_trips_per_session"] = ratio(float64(linked), sessions)
	L["crowd.questions_per_round_trip"] = ratio(float64(items), float64(nCrowd))
	L["crowd.wait_share"] = ratio(crowdWait, wall)
	for _, c := range crowdCalls {
		L["crowd.calls."+c] = ratio(float64(calls[c]), sessions)
	}
	L["harness.unlinked_spans"] = float64(unlinked)
	forkSession := make(map[int64]int64, len(links))
	for f, i := range links {
		forkSession[f] = all[i].id
	}
	return L, forkSession
}

func ledgerAsked(l *crowd.Ledger) int64 {
	var n int64
	for _, k := range []crowd.QuestionKind{
		crowd.BinaryValue, crowd.NumericValue, crowd.Dismantling,
		crowd.Verification, crowd.ExampleQuestion,
	} {
		n += int64(l.Asked(k))
	}
	return n
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
