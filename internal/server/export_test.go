package server

// queueLen reports how many requests are currently waiting.
func (g *governor) queueLen() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.waiters.Len()
}

// len reports the number of cached templates.
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// len reports the number of active queries.
func (r *registry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.active)
}
