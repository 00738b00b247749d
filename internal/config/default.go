package config

import "uswg/internal/nfs"

// User type names used by the thesis's experiments (Table 5.4).
const (
	UserExtremelyHeavy = "extremely-heavy"
	UserHeavy          = "heavy"
	UserLight          = "light"
)

// Think-time means from Table 5.4, µs.
const (
	ThinkExtremelyHeavy = 0
	ThinkHeavy          = 5000
	ThinkLight          = 20000
)

// DefaultCategories returns the merged Table 5.1 (file characterization)
// and Table 5.2 (user characterization) rows. All measures are specified as
// their published means with exponential distributions assumed, exactly as
// §5.1 does ("the measures are assumed to be exponentially distributed").
func DefaultCategories() []Category {
	type row struct {
		ftype, owner, use string
		fileSize          float64 // Table 5.1 mean size, bytes
		pctFiles          float64 // Table 5.1 percent of files
		accPerByte        float64 // Table 5.2 accesses (per byte)
		filesAccessed     float64 // Table 5.2 files per session
		pctUsers          float64 // Table 5.2 percent of users
	}
	rows := []row{
		{FileDir, OwnerUser, UseRdOnly, 714, 7.7, 3.128, 2.9, 69},
		{FileDir, OwnerOther, UseRdOnly, 779, 3.4, 2.28, 2.5, 70},
		{FileReg, OwnerUser, UseRdOnly, 5794, 21.8, 1.42, 6.0, 100},
		{FileReg, OwnerUser, UseNew, 11164, 9.7, 2.36, 4.0, 40},
		{FileReg, OwnerUser, UseRdWrt, 17431, 4.6, 3.50, 2.2, 46},
		{FileReg, OwnerUser, UseTemp, 12431, 38.2, 2.00, 9.7, 59},
		{FileNotes, OwnerOther, UseRdOnly, 31347, 6.4, 0.75, 11.3, 53},
		{FileNotes, OwnerOther, UseRdWrt, 18771, 3.2, 1.77, 5.7, 38},
		{FileOther, OwnerOther, UseRdOnly, 15072, 5.0, 2.11, 3.1, 55},
	}
	cats := make([]Category, len(rows))
	for i, r := range rows {
		cats[i] = Category{
			FileType:      r.ftype,
			Owner:         r.owner,
			Use:           r.use,
			FileSize:      Exp(r.fileSize),
			PercentFiles:  r.pctFiles,
			AccessPerByte: Exp(r.accPerByte),
			FilesAccessed: Exp(r.filesAccessed),
			PercentUsers:  r.pctUsers,
		}
	}
	return cats
}

// DefaultUserTypes returns a single-type population of heavy I/O users
// (think time exponential, mean 5000 µs, the §5.1 assumption).
func DefaultUserTypes() []UserType {
	return []UserType{{Name: UserHeavy, ThinkTime: Exp(ThinkHeavy), Fraction: 1}}
}

// Population builds a two-type heavy/light population with the given heavy
// fraction (the Figures 5.7-5.11 sweeps). heavyFrac 1 yields 100% heavy;
// 0 yields 100% light.
func Population(heavyFrac float64) []UserType {
	switch {
	case heavyFrac >= 1:
		return []UserType{{Name: UserHeavy, ThinkTime: Exp(ThinkHeavy), Fraction: 1}}
	case heavyFrac <= 0:
		return []UserType{{Name: UserLight, ThinkTime: Exp(ThinkLight), Fraction: 1}}
	default:
		return []UserType{
			{Name: UserHeavy, ThinkTime: Exp(ThinkHeavy), Fraction: heavyFrac},
			{Name: UserLight, ThinkTime: Exp(ThinkLight), Fraction: 1 - heavyFrac},
		}
	}
}

// ExtremelyHeavyPopulation returns a 100% zero-think-time population
// (Figure 5.6).
func ExtremelyHeavyPopulation() []UserType {
	return []UserType{{Name: UserExtremelyHeavy, ThinkTime: Const(0), Fraction: 1}}
}

// BalanceFiles splits a total file budget between the system directory and
// the per-user directories so the overall category proportions of Table 5.1
// hold: OTHER-owned categories' PercentFiles go to SystemFiles, USER-owned
// ones to FilesPerUser. It returns (systemFiles, filesPerUser).
func BalanceFiles(cats []Category, total, users int) (int, int) {
	if users < 1 {
		users = 1
	}
	var userPct, otherPct float64
	for _, c := range cats {
		if c.Owner == OwnerUser {
			userPct += c.PercentFiles
		} else {
			otherPct += c.PercentFiles
		}
	}
	sum := userPct + otherPct
	if sum <= 0 {
		return total / 2, total / (2 * users)
	}
	system := int(float64(total) * otherPct / sum)
	perUser := (total - system + users - 1) / users
	if perUser < 1 {
		perUser = 1
	}
	return system, perUser
}

// Default returns the thesis's §5.1 experiment spec: the Table 5.1/5.2
// characterization, exponential access sizes of mean 1024 bytes, heavy I/O
// users (think 5000 µs), one user, 600 sessions, against simulated SUN NFS.
func Default() *Spec {
	cats := DefaultCategories()
	// Split a 260-file budget so the USER/OTHER ownership proportions of
	// Table 5.1 hold for a single-user population.
	system, perUser := BalanceFiles(cats, 260, 1)
	return &Spec{
		Name:         "thesis-5.1",
		Seed:         1991,
		Users:        1,
		Sessions:     600,
		UserTypes:    DefaultUserTypes(),
		AccessSize:   Exp(1024),
		Categories:   cats,
		SystemFiles:  system,
		FilesPerUser: perUser,
		FS: FSSpec{
			Kind:   FSNFS,
			Server: nfs.DefaultServerConfig(),
			Client: nfs.DefaultClientConfig(),
		},
	}
}
