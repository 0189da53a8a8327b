package registry

import (
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"cordial/internal/core"
	"cordial/internal/hbm"
	"cordial/internal/obs"
	"cordial/internal/wal"
)

// Options configures a Registry.
type Options struct {
	// Dir is where artefacts live. Empty means in-memory only: versions are
	// still assigned and served, but nothing survives a restart.
	Dir string
	// Geometry is attached to the strategies the registry hands out.
	Geometry hbm.Geometry
	// Keep bounds Prune's retention (newest Keep versions plus the active
	// one). Zero means DefaultKeep.
	Keep int
	// Clock stamps CreatedAt. Nil means obs.SystemClock.
	Clock obs.Clock
	// FS overrides the filesystem (fault-injection tests); nil means the
	// real one.
	FS wal.FS
}

// DefaultKeep is the prune retention when Options.Keep is zero.
const DefaultKeep = 8

// entry is one known version: metadata always, pipeline lazily loaded from
// disk and cached (Install primes the cache with the live pipeline).
type entry struct {
	meta     Meta
	path     string // empty in memory-only mode
	strategy *core.CordialStrategy
}

// Registry is the versioned model store. It satisfies the stream engine's
// ModelSource shape: ActiveModel is the swap point new sessions bind,
// ModelByVersion resolves the pinned version of recovered sessions.
type Registry struct {
	dir   string
	fs    wal.FS
	geo   hbm.Geometry
	keep  int
	clock obs.Clock

	mu      sync.Mutex
	entries map[uint64]*entry
	next    uint64 // next version to assign
	active  uint64 // 0 = nothing active yet

	// activeStrategy caches the resolved active pair so the hot path
	// (every new session) is one mutex hold with no disk I/O.
	activeStrategy *core.CordialStrategy
}

// Open loads (or initialises) a registry. Existing artefact headers are
// validated eagerly — a corrupt artefact is skipped with its error
// recorded, matching the snapshot fallback discipline — and the ACTIVE
// pointer is restored (falling back to the highest valid version).
func Open(opts Options) (*Registry, error) {
	r := &Registry{
		dir:     opts.Dir,
		fs:      opts.FS,
		geo:     opts.Geometry,
		keep:    opts.Keep,
		clock:   opts.Clock,
		entries: make(map[uint64]*entry),
		next:    1,
	}
	if r.keep <= 0 {
		r.keep = DefaultKeep
	}
	if r.clock == nil {
		r.clock = obs.SystemClock{}
	}
	if r.fs == nil {
		r.fs = wal.OSFS
	}
	if r.dir == "" {
		return r, nil
	}
	if err := r.fs.MkdirAll(r.dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: creating %s: %w", r.dir, err)
	}
	versions, err := wal.Numbered(r.fs, r.dir, artPrefix, artSuffix)
	if err != nil {
		return nil, err
	}
	var firstErr error
	for _, v := range versions {
		path := filepath.Join(r.dir, artName(v))
		meta, _, err := ReadArtifact(r.fs, path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		r.entries[meta.Version] = &entry{meta: meta, path: path}
		r.next = max(r.next, meta.Version+1)
	}
	if len(r.entries) == 0 && firstErr != nil {
		// Every artefact on disk is corrupt: refuse to silently start empty.
		return nil, fmt.Errorf("registry: no valid artefacts in %s: %w", r.dir, firstErr)
	}
	if data, err := wal.ReadFile(r.fs, filepath.Join(r.dir, activeName), 64); err == nil {
		if v, err := strconv.ParseUint(strings.TrimSpace(string(data)), 16, 64); err == nil && r.entries[v] != nil {
			r.active = v
		}
	}
	if r.active == 0 {
		for v := range r.entries {
			r.active = max(r.active, v)
		}
	}
	return r, nil
}

// Install assigns the next version to a fitted pipeline and persists it
// (when backed by a directory) before returning — a version number never
// refers to an artefact that might not survive a crash. The new version is
// NOT activated; call Activate after the swap decision.
func (r *Registry) Install(pipe *core.Pipeline, trigger string) (Meta, error) {
	if pipe == nil || !pipe.Fitted() {
		return Meta{}, fmt.Errorf("registry: refusing to install an unfitted pipeline")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	meta := Meta{
		Version:   r.next,
		CreatedAt: r.clock.Now().UTC(),
		Trigger:   trigger,
		Model:     pipe.Meta(),
	}
	e := &entry{meta: meta, strategy: &core.CordialStrategy{Pipeline: pipe, Geometry: r.geo}}
	if r.dir != "" {
		payload, err := encodePipeline(pipe)
		if err != nil {
			return Meta{}, fmt.Errorf("registry: encoding pipeline: %w", err)
		}
		path, err := WriteArtifact(r.fs, r.dir, meta, payload)
		if err != nil {
			return Meta{}, err
		}
		e.path = path
	}
	r.entries[meta.Version] = e
	r.next = meta.Version + 1
	return meta, nil
}

// Activate flips the active pointer to an installed version. The pointer
// is published before the in-memory flip, so a crash between the two
// re-activates the same version on reboot.
func (r *Registry) Activate(version uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[version]; !ok {
		return fmt.Errorf("registry: version %d not installed", version)
	}
	if r.dir != "" {
		if err := wal.Publish(r.fs, filepath.Join(r.dir, activeName), fmt.Appendf(nil, "%016x\n", version)); err != nil {
			return err
		}
	}
	r.active = version
	r.activeStrategy = nil
	return nil
}

// ActiveVersion returns the active version number (0 when empty).
func (r *Registry) ActiveVersion() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.active
}

// ActiveModel returns the strategy new sessions should bind and its
// version. It returns (nil, 0) when the registry is empty. Part of the
// stream engine's ModelSource contract.
func (r *Registry) ActiveModel() (core.Strategy, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.active == 0 {
		return nil, 0
	}
	if r.activeStrategy == nil {
		s, err := r.strategyLocked(r.active)
		if err != nil {
			return nil, 0
		}
		r.activeStrategy = s
	}
	return r.activeStrategy, r.active
}

// ModelByVersion resolves a specific version, loading it from disk on
// first use. Recovery uses this to rebind sessions to their pinned
// versions. Part of the stream engine's ModelSource contract.
func (r *Registry) ModelByVersion(version uint64) (core.Strategy, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, err := r.strategyLocked(version)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Pipeline returns the fitted pipeline behind a version (loading it if
// needed). The lifecycle manager uses it to read the active model's
// training class mix for the drift test.
func (r *Registry) Pipeline(version uint64) (*core.Pipeline, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, err := r.strategyLocked(version)
	if err != nil {
		return nil, err
	}
	return s.Pipeline, nil
}

// strategyLocked resolves (and caches) the strategy for a version.
func (r *Registry) strategyLocked(version uint64) (*core.CordialStrategy, error) {
	e, ok := r.entries[version]
	if !ok {
		return nil, fmt.Errorf("registry: version %d not installed", version)
	}
	if e.strategy == nil {
		if e.path == "" {
			return nil, fmt.Errorf("registry: version %d has no artefact", version)
		}
		_, payload, err := ReadArtifact(r.fs, e.path)
		if err != nil {
			return nil, fmt.Errorf("registry: loading version %d: %w", version, err)
		}
		pipe, err := decodePipeline(payload)
		if err != nil {
			return nil, fmt.Errorf("registry: restoring version %d: %w", version, err)
		}
		e.strategy = &core.CordialStrategy{Pipeline: pipe, Geometry: r.geo}
	}
	return e.strategy, nil
}

// Versions lists all installed versions' metadata, oldest first.
func (r *Registry) Versions() []Meta {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Meta, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e.meta)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Version < out[j].Version })
	return out
}

// MetaOf returns one version's metadata.
func (r *Registry) MetaOf(version uint64) (Meta, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[version]
	if !ok {
		return Meta{}, false
	}
	return e.meta, true
}

// Prune drops the oldest versions beyond the retention limit. The active
// version is never pruned regardless of age, and neither is a version in
// needed: a running engine's stream.Engine.NeededVersions, the versions a boot
// over its directory resolves. A pruned artefact's directory entry is not
// synced, so a power cut may bring it back.
func (r *Registry) Prune(needed []uint64) (removed int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.entries) <= r.keep {
		return 0, nil
	}
	versions := make([]uint64, 0, len(r.entries))
	for v := range r.entries {
		versions = append(versions, v)
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })
	excess := len(versions) - r.keep
	for _, v := range versions[:excess] {
		if v == r.active || slices.Contains(needed, v) {
			continue
		}
		e := r.entries[v]
		if e.path != "" {
			if rerr := r.fs.Remove(e.path); rerr != nil {
				if err == nil {
					err = fmt.Errorf("registry: pruning version %d: %w", v, rerr)
				}
				continue
			}
		}
		delete(r.entries, v)
		removed++
	}
	return removed, err
}

// Len reports how many versions are installed.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}
