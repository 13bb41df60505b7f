package server

import (
	"container/list"
	"sync"

	"repro/internal/plan"
)

// planCache is an LRU of compiled plan templates. The key is the
// normalized plan text (plan.Normalize), so textual variants of one
// query — comments, stage line breaks, surrounding whitespace — share an
// entry. The catalog is fixed for the life of a process, so no entry
// goes stale. Values are *plan.Template, which are immutable, so
// a hit may be handed to a request while another request holds the same
// template mid-execution.
type planCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used; values are *cacheEntry
	byKey map[string]*list.Element

	m *serverMetrics
}

// cacheEntry pairs an immutable compiled template with the mutable
// planning state the feedback loop accumulates across repeats of the
// same normalized plan: the current costed derivation, the observed
// per-node cardinalities of the latest completed run, and the re-plan
// count. The entry-level mutex covers only that state — the LRU's own
// lock is never held while costing.
type cacheEntry struct {
	key string
	tpl *plan.Template

	mu       sync.Mutex
	costed   *plan.CostedPlan
	observed map[*plan.Node]int64 // keyed by tpl's nodes
	replans  int64
}

// costedFor returns the entry's current costed plan, deriving it on
// first use (and after feedback discards a mis-estimated one). Costing
// inside the entry lock means concurrent repeats share one derivation —
// important for the feedback loop, which only accepts observations
// against the costed plan that is still current. keepCuts is set when
// the server has a coordinator: no rewrite may cross an exchange a
// worker fleet could run (plan.CostKeepingCuts).
func (e *cacheEntry) costedFor(cat plan.Catalog, keepCuts bool, m *serverMetrics) *plan.CostedPlan {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.costed == nil {
		if keepCuts {
			e.costed = e.tpl.CostKeepingCuts(cat, e.observed)
		} else {
			e.costed = e.tpl.Cost(cat, e.observed)
		}
		m.plannerCosted.Inc()
	}
	return e.costed
}

// feedback folds one completed run's observed cardinalities back into
// the entry and, on a gross mis-estimate, discards the costed plan so
// the next repeat re-costs with the observations. Observations are only
// accepted against the entry's *current* costed plan: once one run has
// triggered the re-plan, concurrent stragglers that executed the same
// stale derivation are ignored, so a burst of identical mis-estimated
// queries re-plans exactly once. Returns whether a re-plan was
// scheduled.
func (e *cacheEntry) feedback(cp *plan.CostedPlan, an *plan.Analysis, m *serverMetrics) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.costed != cp {
		return false
	}
	obs := cp.Observed(an)
	if len(obs) == 0 {
		return false
	}
	if e.observed == nil {
		e.observed = make(map[*plan.Node]int64, len(obs))
	}
	for n, o := range obs {
		e.observed[n] = o
	}
	m.plannerFeedback.Inc()
	if _, _, _, mis := cp.MisEstimated(an, plan.MisEstimateFactor); mis {
		e.costed = nil
		e.replans++
		m.plannerReplans.Inc()
		return true
	}
	return false
}

// replanCount reads the entry's re-plan total (tests, /debug views).
func (e *cacheEntry) replanCount() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.replans
}

// newPlanCache returns a cache holding up to capacity templates; a
// capacity <= 0 disables caching (every lookup misses, nothing stored).
func newPlanCache(capacity int, m *serverMetrics) *planCache {
	return &planCache{
		cap:   capacity,
		ll:    list.New(),
		byKey: make(map[string]*list.Element),
		m:     m,
	}
}

// get returns the cached entry for key, refreshing its recency.
func (c *planCache) get(key string) (*cacheEntry, bool) {
	if c.cap <= 0 {
		c.m.cacheMisses.Inc()
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.m.cacheMisses.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.m.cacheHits.Inc()
	return el.Value.(*cacheEntry), true
}

// put stores a freshly compiled template and returns its entry,
// evicting the least recently used entry when full. Two requests that
// miss on the same key both compile and both put; the loser adopts the
// winner's entry instead of overwriting it — the entry carries
// accumulated planning feedback keyed by its own template's nodes,
// which an equivalent-but-distinct template would orphan. With the
// cache disabled, put hands back an untracked entry so the request
// still costs and executes normally (the feedback just dies with it).
func (c *planCache) put(key string, tpl *plan.Template) *cacheEntry {
	if c.cap <= 0 {
		return &cacheEntry{key: key, tpl: tpl}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry)
	}
	e := &cacheEntry{key: key, tpl: tpl}
	c.byKey[key] = c.ll.PushFront(e)
	if c.ll.Len() > c.cap {
		old := c.ll.Remove(c.ll.Back()).(*cacheEntry)
		delete(c.byKey, old.key)
		c.m.cacheEvictions.Inc()
	}
	return e
}
