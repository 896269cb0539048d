package memctl

// Allocated reports which of c's lazily allocated tables exist: the
// cache's tag words, the activation counters and the dense rates.
func Allocated(c *Controller) (tags, acts, rates bool) {
	return c.cache.tags != nil, c.acts != nil, c.denseRates != nil
}
