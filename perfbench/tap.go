package main

import (
	"fmt"
	"strings"

	"repro/internal/crowd"
	"repro/internal/domain"
)

// caps is the set of optional capabilities a crowd platform exposes. The
// tier and the evaluators pick their code paths by type assertion on
// these, so a wrapper that hides one (Forker: sessions serialize) or adds
// one (ValueBatcher: round trips collapse) would make the benchmark
// measure a different program.
type caps uint8

const (
	capForker caps = 1 << iota
	capSnapshot
	capValueBatch
	capMultiBatch
	capDetailed
	capRequests
	capFaults
)

// snapshotter is the serving tier's preferred copy-on-write capability.
type snapshotter interface {
	Snapshot() *crowd.SimSnapshot
}

func capsOf(p crowd.Platform) caps {
	var c caps
	if _, ok := p.(crowd.Forker); ok {
		c |= capForker
	}
	if _, ok := p.(snapshotter); ok {
		c |= capSnapshot
	}
	if _, ok := p.(crowd.ValueBatcher); ok {
		c |= capValueBatch
	}
	if _, ok := p.(crowd.MultiValueBatcher); ok {
		c |= capMultiBatch
	}
	if _, ok := p.(crowd.DetailedValuer); ok {
		c |= capDetailed
	}
	if _, ok := p.(crowd.RequestReporter); ok {
		c |= capRequests
	}
	if _, ok := p.(crowd.FaultReporter); ok {
		c |= capFaults
	}
	return c
}

func (c caps) String() string {
	names := []string{"Forker", "Snapshot", "ValueBatcher", "MultiValueBatcher", "DetailedValuer", "RequestReporter", "FaultReporter"}
	var on []string
	for i, n := range names {
		if c&(1<<i) != 0 {
			on = append(on, n)
		}
	}
	return "{" + strings.Join(on, ",") + "}"
}

// The capability sets of the platform stacks the benchmark taps, one
// wrapper type each.
const (
	faultyCaps = capForker | capMultiBatch | capDetailed | capRequests | capFaults
	simCaps    = capForker | capSnapshot | capValueBatch | capMultiBatch | capDetailed
	clientCaps = capValueBatch | capMultiBatch | capRequests | capFaults
)

// tap forwards every crowd.Platform call unchanged and records one span
// per call. Use tapPlatform, which returns the variant exposing exactly
// the wrapped platform's capabilities.
type tap struct {
	inner crowd.Platform
	rec   *recorder
	kind  spanKind
	f     *fork
	// pool is the database the sessions draw from; value questions about
	// these objects are what link a fork to its session. Example objects
	// the platform materializes are not in it.
	pool map[int]bool
}

// tapPlatform wraps p. It fails on a capability set it has no variant
// for rather than expose a different one.
func tapPlatform(p crowd.Platform, rec *recorder, kind spanKind, pool map[int]bool) (crowd.Platform, error) {
	t := &tap{inner: p, rec: rec, kind: kind, pool: pool, f: rec.newFork()}
	var out crowd.Platform
	switch c := capsOf(p); c {
	case faultyCaps:
		out = faultyTap{t}
	case simCaps:
		out = simTap{t}
	case clientCaps:
		out = clientTap{t}
	default:
		return nil, fmt.Errorf("perfbench: no tap for capability set %v", c)
	}
	t.f.p = out
	return out, nil
}

func (t *tap) done(call string, start int64, items int) {
	t.rec.add(span{kind: t.kind, call: call, start: start, end: t.rec.now(), owner: t.f.id, items: items})
}

func (t *tap) note(o *domain.Object) {
	if o != nil && t.pool[o.ID] {
		t.f.note(o.ID)
	}
}

func (t *tap) Value(o *domain.Object, attr string, n int) ([]float64, error) {
	t.note(o)
	defer t.done("value", t.rec.now(), 1)
	return t.inner.Value(o, attr, n)
}

func (t *tap) Dismantle(attr string) (string, error) {
	t.f.noteBuild()
	defer t.done("dismantle", t.rec.now(), 1)
	return t.inner.Dismantle(attr)
}

func (t *tap) Verify(candidate, target string) (bool, error) {
	t.f.noteBuild()
	defer t.done("verify", t.rec.now(), 1)
	return t.inner.Verify(candidate, target)
}

func (t *tap) Examples(targets []string, n int) ([]crowd.Example, error) {
	t.f.noteBuild()
	defer t.done("examples", t.rec.now(), 1)
	return t.inner.Examples(targets, n)
}

func (t *tap) Canonical(name string) string            { return t.inner.Canonical(name) }
func (t *tap) Sigma(attr string) float64               { return t.inner.Sigma(attr) }
func (t *tap) IsBinary(attr string) bool               { return t.inner.IsBinary(attr) }
func (t *tap) Pricing() crowd.Pricing                  { return t.inner.Pricing() }
func (t *tap) Ledger() *crowd.Ledger                   { return t.inner.Ledger() }
func (t *tap) SetLedger(l *crowd.Ledger) *crowd.Ledger { return t.inner.SetLedger(l) }

func (t *tap) valueBatch(o *domain.Object, qs []crowd.ValueQuestion) ([][]float64, error) {
	t.note(o)
	defer t.done("value_batch", t.rec.now(), len(qs))
	return t.inner.(crowd.ValueBatcher).ValueBatch(o, qs)
}

func (t *tap) valueBatchMulti(qs []crowd.ObjectValueQuestion) ([][]float64, error) {
	for _, q := range qs {
		t.note(q.Object)
	}
	defer t.done("value_batch_multi", t.rec.now(), len(qs))
	return t.inner.(crowd.MultiValueBatcher).ValueBatchMulti(qs)
}

func (t *tap) valueDetailed(o *domain.Object, attr string, n int) ([]crowd.DetailedAnswer, error) {
	t.note(o)
	defer t.done("value_detailed", t.rec.now(), 1)
	return t.inner.(crowd.DetailedValuer).ValueDetailed(o, attr, n)
}

// forkPlatform forks the wrapped platform and taps the fork, so the
// session's calls stay visible. The fork of a wrapper stack has the
// stack's capability set; anything else is a bug in that stack.
func (t *tap) forkPlatform() crowd.Platform {
	inner := t.inner.(crowd.Forker).ForkPlatform()
	if inner == nil {
		return nil
	}
	p, err := tapPlatform(inner, t.rec, t.kind, t.pool)
	if err != nil {
		panic(err)
	}
	return p
}

func (t *tap) requestCount() int64 { return t.inner.(crowd.RequestReporter).RequestCount() }

func (t *tap) faultStats() crowd.FaultStats { return t.inner.(crowd.FaultReporter).FaultStats() }

// faultyTap wraps crowd.FaultyPlatform over a simulator: the tier's
// latency-modeled backend.
type faultyTap struct{ *tap }

func (t faultyTap) ForkPlatform() crowd.Platform { return t.forkPlatform() }
func (t faultyTap) ValueBatchMulti(qs []crowd.ObjectValueQuestion) ([][]float64, error) {
	return t.valueBatchMulti(qs)
}
func (t faultyTap) ValueDetailed(o *domain.Object, attr string, n int) ([]crowd.DetailedAnswer, error) {
	return t.valueDetailed(o, attr, n)
}
func (t faultyTap) RequestCount() int64          { return t.requestCount() }
func (t faultyTap) FaultStats() crowd.FaultStats { return t.faultStats() }

// simTap wraps a bare crowd.SimPlatform. Forks taken through Snapshot
// are the simulator's own and go untapped, so it sits only where nothing
// forks (behind crowdhttp.Server), never as a tier backend.
type simTap struct{ *tap }

func (t simTap) ForkPlatform() crowd.Platform { return t.forkPlatform() }
func (t simTap) Snapshot() *crowd.SimSnapshot { return t.inner.(snapshotter).Snapshot() }
func (t simTap) ValueBatch(o *domain.Object, qs []crowd.ValueQuestion) ([][]float64, error) {
	return t.valueBatch(o, qs)
}
func (t simTap) ValueBatchMulti(qs []crowd.ObjectValueQuestion) ([][]float64, error) {
	return t.valueBatchMulti(qs)
}
func (t simTap) ValueDetailed(o *domain.Object, attr string, n int) ([]crowd.DetailedAnswer, error) {
	return t.valueDetailed(o, attr, n)
}

// clientTap wraps a crowdhttp.Client.
type clientTap struct{ *tap }

func (t clientTap) ValueBatch(o *domain.Object, qs []crowd.ValueQuestion) ([][]float64, error) {
	return t.valueBatch(o, qs)
}
func (t clientTap) ValueBatchMulti(qs []crowd.ObjectValueQuestion) ([][]float64, error) {
	return t.valueBatchMulti(qs)
}
func (t clientTap) RequestCount() int64          { return t.requestCount() }
func (t clientTap) FaultStats() crowd.FaultStats { return t.faultStats() }
