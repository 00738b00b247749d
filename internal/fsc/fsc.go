// Package fsc implements the File System Creator: it builds the new,
// artificial file system the generator drives, so experiments never modify
// existing files (thesis §4.1.2). Files are created per category from the
// Table 5.1 file distributions: a system directory holds OTHER-owned
// categories, and one directory per virtual user holds USER-owned
// categories. Only files that may be accessed are created, which is what
// keeps the synthetic file system small.
//
// Categories whose type of use is NEW or TEMP are not pre-created: those
// files come into existence when the User Simulator creates them
// mid-session, as they did in the measured workload. The FSC still creates
// their parent directories and assigns their file-count quota so Table 5.1's
// category proportions are preserved.
//
// With Spec.LazyUsers the per-user trees are not created up front either:
// Build creates the shared system tree, pre-draws every user's file sizes
// from the eager stream (in eager order, so a lazy build is bit-equal to an
// eager one), and MaterializeUser replays one user's tree creation on the
// user's first arrival. Setup cost then scales with materialized users —
// the BuildOps counter pins it.
//
// In the DES→workload→trace→analysis pipeline the FSC is the workload
// stage's setup step: it populates the file system (simulated or real) the
// User Simulator will then drive.
package fsc

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"uswg/internal/config"
	"uswg/internal/gds"
	"uswg/internal/vfs"
)

// FileSet is the pool of candidate files for one (owner directory, category)
// pair: pre-created paths plus a directory in which NEW/TEMP files can be
// created during sessions.
type FileSet struct {
	// Category indexes into the spec's category list.
	Category int
	// Dir is the directory holding this set's files.
	Dir string
	// Paths lists the pre-created files (directories for DIR categories).
	Paths []string
	// Quota is the number of files Table 5.1 allots this set; for NEW and
	// TEMP categories it exceeds len(Paths) because files are created
	// during sessions.
	Quota int

	mu     sync.Mutex
	nextID int
}

// NewPath reserves a fresh path inside the set's directory for a file the
// session will create.
func (fs *FileSet) NewPath() string {
	fs.mu.Lock()
	id := fs.nextID
	fs.nextID++
	fs.mu.Unlock()
	return fs.Dir + "/n" + strconv.Itoa(id)
}

// Inventory is the FSC's output: every candidate file, organized by
// ownership, user, and category.
type Inventory struct {
	// System holds one FileSet per category for OTHER-owned categories
	// (nil entries for USER-owned ones).
	System []*FileSet
	// Users holds, per user, one FileSet per USER-owned category (nil
	// entries for OTHER-owned ones). In a lazy build a user's entry is nil
	// until MaterializeUser creates the tree.
	Users [][]*FileSet

	// FilesCreated counts pre-created files and directories.
	FilesCreated int
	// BytesCreated sums the sizes written into pre-created files.
	BytesCreated int64
	// BuildOps counts the vfs operations issued creating directories and
	// files. An eager build charges every user here; a lazy build charges
	// only the system tree plus materialized users — the counter that pins
	// setup cost to O(materialized).
	BuildOps int64
	// UsersBuilt counts user trees actually created: Users for an eager
	// build, the number of MaterializeUser calls for a lazy one.
	UsersBuilt int

	// lazy holds the deferred remainder of a lazy build; nil when eager.
	lazy *lazyUsers
}

// lazyUsers is everything MaterializeUser needs to replay one user's tree
// creation on demand, bit-equal to the eager build: the setup clock and
// file system Build ran on, and every user's file sizes pre-drawn from the
// eager stream in eager order. Pre-drawing (a few int64s per user) is what
// makes materialization order unable to perturb any draw — the same
// stream-independence contract the user simulator's per-user rng streams
// give its session draws.
type lazyUsers struct {
	ctx     vfs.Ctx
	b       *builder
	spec    *config.Spec
	userPct float64
	// sizes holds the pre-drawn file sizes, perUser entries per user (the
	// category shares are user-independent, so every user draws the same
	// count), consumed in build order by MaterializeUser.
	sizes   []int64
	perUser int
}

// ForUser returns the file set user u draws from for category cat: the
// user's own set for USER-owned categories, the shared system set
// otherwise. A lazy-build user that has not materialized falls back to the
// system set (nil for USER-owned categories) — sessions only run for
// materialized users.
func (inv *Inventory) ForUser(u, cat int) *FileSet {
	if sets := inv.Users[u]; sets != nil {
		if s := sets[cat]; s != nil {
			return s
		}
	}
	return inv.System[cat]
}

// slug converts a category name into a directory-friendly label.
func slug(c *config.Category) string {
	s := strings.ToLower(c.Name())
	s = strings.ReplaceAll(s, "/", "-")
	return s
}

// builder carries a build's reusable state: the synchronous caller every
// creation goes through (its call count is the BuildOps source), one
// path-formatting scratch buffer, and the slabs the inventory is carved
// from.
type builder struct {
	fs    vfs.Sync
	path  []byte
	slugs []string // category slugs, computed once — slug() allocates

	// Retained inventory structures come from slabs: populations allocate
	// FileSets, per-user set tables, and path arrays by the thousands, and
	// every one lives as long as the inventory.
	setSlab  []FileSet
	tabSlab  []*FileSet
	pathSlab []string
}

// newSet carves a FileSet from the slab.
func (b *builder) newSet() *FileSet {
	if len(b.setSlab) == 0 {
		b.setSlab = make([]FileSet, 64)
	}
	s := &b.setSlab[0]
	b.setSlab = b.setSlab[1:]
	return s
}

// newTable carves one user's category-indexed set table from the slab.
func (b *builder) newTable(n int) []*FileSet {
	if len(b.tabSlab) < n {
		b.tabSlab = make([]*FileSet, 64*n)
	}
	t := b.tabSlab[:n:n]
	b.tabSlab = b.tabSlab[n:]
	return t
}

// newPaths carves a zero-length, cap-n path array from the slab.
func (b *builder) newPaths(n int) []string {
	if n == 0 {
		return nil
	}
	if len(b.pathSlab) < n {
		size := 1024
		if n > size {
			size = n
		}
		b.pathSlab = make([]string, size)
	}
	p := b.pathSlab[:0:n]
	b.pathSlab = b.pathSlab[n:]
	return p
}

// filePath formats dir/f<i> through the reusable scratch buffer, allocating
// only the returned string (which FileSet.Paths retains).
func (b *builder) filePath(dir string, i int) string {
	p := append(b.path[:0], dir...)
	p = append(p, '/', 'f')
	p = strconv.AppendInt(p, int64(i), 10)
	b.path = p
	return string(p)
}

// Build creates the initial file system on fsys per the spec's Table 5.1
// characterization, charging creation time to ctx. The spec's SystemFiles
// are split across OTHER-owned categories and each user's FilesPerUser
// across USER-owned categories, both proportionally to PercentFiles. With
// spec.LazyUsers only the system tree is created now; user trees wait for
// MaterializeUser.
func Build(ctx vfs.Ctx, fsys vfs.FileSystem, spec *config.Spec, tables *gds.TableSet, r *rand.Rand) (*Inventory, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// Setup runs on an uncharged synchronous clock, never under the DES, so
	// the continuation-passing file system folds back to call-and-return.
	b := &builder{fs: vfs.Sync{FS: fsys}}
	b.slugs = make([]string, len(spec.Categories))
	for i := range spec.Categories {
		b.slugs[i] = slug(&spec.Categories[i])
	}
	inv := &Inventory{
		System: make([]*FileSet, len(spec.Categories)),
		Users:  make([][]*FileSet, spec.Users),
	}

	// Partition the file budget within each ownership class.
	var userPct, otherPct float64
	for i := range spec.Categories {
		if c := &spec.Categories[i]; c.Owner == config.OwnerUser {
			userPct += c.PercentFiles
		} else {
			otherPct += c.PercentFiles
		}
	}

	// sample draws one file size for a category — the single size stream
	// both ownership classes consume, in spec order.
	sample := func(catIdx int) int64 {
		return int64(math.Max(1, math.Round(tables.FileSize[catIdx].Sample(r))))
	}

	if err := b.fs.Mkdir(ctx, "/sys"); err != nil && !vfs.IsExist(err) {
		return nil, fmt.Errorf("fsc: mkdir /sys: %w", err)
	}
	for i := range spec.Categories {
		c := &spec.Categories[i]
		if c.Owner == config.OwnerUser {
			continue
		}
		count := share(spec.SystemFiles, c.PercentFiles, otherPct)
		set, err := buildSet(ctx, b, "/sys/"+b.slugs[i], i, c, count, sample, inv)
		if err != nil {
			return nil, err
		}
		inv.System[i] = set
	}

	if spec.LazyUsers {
		// Defer the user trees: pre-draw every user's sizes from the same
		// stream, in the exact order the eager loop below would have, so a
		// later MaterializeUser replays creation bit-equally no matter when
		// (or whether) each user arrives. Every user draws counts[i] sizes
		// for category i.
		counts := make([]int, len(spec.Categories))
		perUser := 0
		for i := range spec.Categories {
			c := &spec.Categories[i]
			if c.Owner != config.OwnerUser || c.IsDir() ||
				c.Use == config.UseNew || c.Use == config.UseTemp {
				continue
			}
			counts[i] = share(spec.FilesPerUser, c.PercentFiles, userPct)
			perUser += counts[i]
		}
		sizes := make([]int64, 0, perUser*spec.Users)
		for u := 0; u < spec.Users; u++ {
			for i, count := range counts {
				for j := 0; j < count; j++ {
					sizes = append(sizes, sample(i))
				}
			}
		}
		inv.lazy = &lazyUsers{
			ctx: ctx, b: b, spec: spec, userPct: userPct,
			sizes: sizes, perUser: perUser,
		}
		inv.BuildOps = b.fs.Calls()
		return inv, nil
	}

	for u := 0; u < spec.Users; u++ {
		sets, err := buildUser(ctx, b, spec, u, userPct, sample, inv)
		if err != nil {
			return nil, err
		}
		inv.Users[u] = sets
		inv.UsersBuilt++
	}
	inv.BuildOps = b.fs.Calls()
	return inv, nil
}

// MaterializeUser creates user u's private file tree on demand, exactly as
// the eager build would have (pre-drawn sizes, same paths), charging the
// setup clock Build ran on. Idempotent; a no-op for eager inventories. The
// caller (the DES-driven generator) serializes calls.
func (inv *Inventory) MaterializeUser(u int) error {
	lz := inv.lazy
	if lz == nil || inv.Users[u] != nil {
		return nil
	}
	queue := lz.sizes[u*lz.perUser : (u+1)*lz.perUser]
	next := 0
	sample := func(int) int64 {
		s := queue[next]
		next++
		return s
	}
	before := lz.b.fs.Calls()
	sets, err := buildUser(lz.ctx, lz.b, lz.spec, u, lz.userPct, sample, inv)
	inv.BuildOps += lz.b.fs.Calls() - before
	if err != nil {
		return err
	}
	inv.Users[u] = sets
	inv.UsersBuilt++
	return nil
}

// buildUser creates one user's directory and per-category file sets.
func buildUser(ctx vfs.Ctx, b *builder, spec *config.Spec, u int, userPct float64,
	sample func(catIdx int) int64, inv *Inventory) ([]*FileSet, error) {
	userDir := "/u" + strconv.Itoa(u)
	if err := b.fs.Mkdir(ctx, userDir); err != nil && !vfs.IsExist(err) {
		return nil, fmt.Errorf("fsc: mkdir %s: %w", userDir, err)
	}
	sets := b.newTable(len(spec.Categories))
	for i := range spec.Categories {
		c := &spec.Categories[i]
		if c.Owner != config.OwnerUser {
			continue
		}
		count := share(spec.FilesPerUser, c.PercentFiles, userPct)
		set, err := buildSet(ctx, b, userDir+"/"+b.slugs[i], i, c, count, sample, inv)
		if err != nil {
			return nil, err
		}
		sets[i] = set
	}
	return sets, nil
}

// share apportions total files to a category with pct out of pctSum percent,
// guaranteeing at least one file to any category with positive share.
func share(total int, pct, pctSum float64) int {
	if pctSum <= 0 || pct <= 0 || total <= 0 {
		return 0
	}
	n := int(math.Round(float64(total) * pct / pctSum))
	if n < 1 {
		n = 1
	}
	return n
}

func buildSet(ctx vfs.Ctx, b *builder, dir string, catIdx int, c *config.Category,
	count int, sample func(catIdx int) int64, inv *Inventory) (*FileSet, error) {
	if err := b.fs.Mkdir(ctx, dir); err != nil && !vfs.IsExist(err) {
		return nil, fmt.Errorf("fsc: mkdir %s: %w", dir, err)
	}
	set := b.newSet()
	set.Category, set.Dir, set.Quota = catIdx, dir, count
	if c.Use == config.UseNew || c.Use == config.UseTemp {
		// Created during sessions, not ahead of time.
		return set, nil
	}
	set.Paths = b.newPaths(count)
	for i := 0; i < count; i++ {
		path := b.filePath(dir, i)
		if c.IsDir() {
			if err := b.fs.Mkdir(ctx, path); err != nil {
				return nil, fmt.Errorf("fsc: mkdir %s: %w", path, err)
			}
		} else {
			size := sample(catIdx)
			if err := createFile(ctx, b, path, size); err != nil {
				return nil, err
			}
			inv.BytesCreated += size
		}
		set.Paths = append(set.Paths, path)
		inv.FilesCreated++
	}
	return set, nil
}

func createFile(ctx vfs.Ctx, b *builder, path string, size int64) error {
	fd, err := b.fs.Create(ctx, path)
	if err != nil {
		return fmt.Errorf("fsc: create %s: %w", path, err)
	}
	if size > 0 {
		if _, err := b.fs.Write(ctx, fd, size); err != nil {
			_ = b.fs.Close(ctx, fd)
			return fmt.Errorf("fsc: write %s: %w", path, err)
		}
	}
	if err := b.fs.Close(ctx, fd); err != nil {
		return fmt.Errorf("fsc: close %s: %w", path, err)
	}
	return nil
}

// CategoryStats describes what the FSC created for one category (the
// regenerated Table 5.1).
type CategoryStats struct {
	Name         string
	Files        int
	MeanSize     float64
	PercentFiles float64
}

// Stats summarizes the inventory against the spec, computing each
// category's share of created (plus quota) files and the mean size of
// pre-created regular files. Lazy inventories count only materialized
// users.
func (inv *Inventory) Stats(ctx vfs.Ctx, fsys vfs.FileSystem, spec *config.Spec) ([]CategoryStats, error) {
	fs := vfs.Sync{FS: fsys}
	counts := make([]int, len(spec.Categories))
	sizes := make([]float64, len(spec.Categories))
	sized := make([]int, len(spec.Categories))

	collect := func(set *FileSet) error {
		if set == nil {
			return nil
		}
		counts[set.Category] += set.Quota
		for _, p := range set.Paths {
			info, err := fs.Stat(ctx, p)
			if err != nil {
				return fmt.Errorf("fsc: stat %s: %w", p, err)
			}
			if !info.IsDir {
				sizes[set.Category] += float64(info.Size)
				sized[set.Category]++
			}
		}
		return nil
	}
	for _, set := range inv.System {
		if err := collect(set); err != nil {
			return nil, err
		}
	}
	for _, sets := range inv.Users {
		if sets == nil {
			continue
		}
		for _, set := range sets {
			if err := collect(set); err != nil {
				return nil, err
			}
		}
	}

	var total int
	for _, n := range counts {
		total += n
	}
	out := make([]CategoryStats, len(spec.Categories))
	for i, c := range spec.Categories {
		out[i] = CategoryStats{Name: c.Name(), Files: counts[i]}
		if sized[i] > 0 {
			out[i].MeanSize = sizes[i] / float64(sized[i])
		}
		if total > 0 {
			out[i].PercentFiles = 100 * float64(counts[i]) / float64(total)
		}
	}
	return out, nil
}
