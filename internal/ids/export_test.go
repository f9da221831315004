package ids

// Issued reports how many IDs have been allocated.
func (a *NodeAllocator) Issued() int { return int(a.next) }
