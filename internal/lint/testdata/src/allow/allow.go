//wlint:allow maprange before the package clause - covers no line, so stale

// Package allow exercises the driver's annotation handling: a used allow
// suppresses its diagnostic, a stale allow is reported (before the package
// clause too: there is no file-wide form), and malformed or
// unknown-analyzer annotations are diagnosed. Checked by TestAllowAudit
// (no // want comments here; the test asserts the diagnostics directly).
package allow

func sums(m map[string]int) int {
	s := 0
	for _, v := range m { //wlint:allow maprange order-insensitive integer sum
		s += v
	}

	x := 0
	//wlint:allow maprange nothing here to suppress - stale by construction
	x++

	//wlint:allow maprange
	x++

	//wlint:allow nosuchanalyzer some reason
	x++

	return s + x
}
