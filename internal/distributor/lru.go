package distributor

// lruCache is a small bounded string-keyed map with least-recently-used
// eviction, shared by the PlanCache and the Fixed baseline. It is not
// internally synchronized; callers hold their own lock.
type lruCache[V any] struct {
	capacity   int
	items      map[string]*lruNode[V]
	head, tail *lruNode[V] // head = most recently used
}

type lruNode[V any] struct {
	key        string
	val        V
	prev, next *lruNode[V]
}

// newLRU returns an empty cache holding at most capacity entries
// (capacity < 1 is clamped to 1).
func newLRU[V any](capacity int) *lruCache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache[V]{capacity: capacity, items: make(map[string]*lruNode[V])}
}

func (c *lruCache[V]) len() int { return len(c.items) }

func (c *lruCache[V]) cap() int { return c.capacity }

// get returns the value for key and marks it most recently used.
func (c *lruCache[V]) get(key string) (V, bool) {
	n, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.moveToFront(n)
	return n.val, true
}

// put inserts or refreshes key and reports whether an older entry was
// evicted to make room.
func (c *lruCache[V]) put(key string, val V) (evicted bool) {
	if n, ok := c.items[key]; ok {
		n.val = val
		c.moveToFront(n)
		return false
	}
	n := &lruNode[V]{key: key, val: val}
	c.items[key] = n
	c.pushFront(n)
	if len(c.items) > c.capacity {
		c.removeNode(c.tail)
		return true
	}
	return false
}

// delete removes key and reports whether it was present.
func (c *lruCache[V]) delete(key string) bool {
	n, ok := c.items[key]
	if !ok {
		return false
	}
	c.removeNode(n)
	return true
}

// clear drops every entry and returns how many were held.
func (c *lruCache[V]) clear() int {
	n := len(c.items)
	c.items = make(map[string]*lruNode[V])
	c.head, c.tail = nil, nil
	return n
}

func (c *lruCache[V]) pushFront(n *lruNode[V]) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *lruCache[V]) moveToFront(n *lruNode[V]) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

func (c *lruCache[V]) removeNode(n *lruNode[V]) {
	c.unlink(n)
	delete(c.items, n.key)
}

func (c *lruCache[V]) unlink(n *lruNode[V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
}
