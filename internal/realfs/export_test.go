package realfs

// Root returns the sandbox root.
func (f *FS) Root() string { return f.root }

// EINTRRetries returns how many interrupted syscall attempts were retried.
func (f *FS) EINTRRetries() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.eintrRetries
}
