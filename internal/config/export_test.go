package config

// ThinkTimeFor returns the Table 5.4 think-time spec for a user type name.
// Zero think time is a constant (an extremely heavy I/O user never pauses);
// the others are exponential as in §5.1.
func ThinkTimeFor(mean float64) DistSpec {
	if mean <= 0 {
		return Const(0)
	}
	return Exp(mean)
}
