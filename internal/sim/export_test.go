package sim

// Servers returns the number of servers.
func (r *Resource) Servers() int { return r.servers }
