// Package store persists content-addressed simulation results on disk
// so the daemon survives restarts: every result in this repository is a
// pure function of its spec's canonical hash (experiments.Spec.Key), so
// a byte payload written once under that key is correct forever and a
// freshly started sppd can serve it without simulating.
//
// The layout is one file per key — `<key>.res` under the store
// directory — written via temp-file-plus-atomic-rename so readers never
// observe a half-written entry, and framed with a length + CRC32 header
// so torn or corrupted payloads are detected on read and recomputed
// rather than served. The store is deliberately simulator-independent:
// it moves opaque bytes keyed by opaque hex strings and must never
// import sim-core packages (enforced by the simlint `deps` analyzer).
package store

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"spp1000/internal/faultinject"
)

// magic tags the entry-file format; bump it if the framing changes so
// old files read as corrupt (and are recomputed) instead of misparsing.
const magic = "sppstore1"

// entrySuffix is appended to the key to form the entry file name.
const entrySuffix = ".res"

// tmpPrefix marks in-progress writes; leftovers from a crashed daemon
// are swept on Open.
const tmpPrefix = ".tmp-"

// Stats counts store outcomes. All fields are cumulative since Open.
type Stats struct {
	// Hits are Gets served a validated payload.
	Hits int64
	// Misses are Gets that found no (valid) entry.
	Misses int64
	// Puts are entries durably written.
	Puts int64
	// Corrupt are entries whose header, length, or CRC check failed on
	// read; each was deleted so the result is recomputed, not served.
	Corrupt int64
	// Evictions are entries removed to respect the capacity bound.
	Evictions int64
}

// Store is a disk-backed content-addressed result store. It is safe for
// concurrent use. Create with Open.
type Store struct {
	dir string
	cap int // max entries; 0 = unbounded

	mu      sync.Mutex
	entries map[string]time.Time // key → entry-file mod time (eviction order)

	hits      int64
	misses    int64
	puts      int64
	corrupt   int64
	evictions int64
}

// Open creates (if needed) and indexes the store directory. capacity
// bounds the number of entries kept (oldest mod time evicted first);
// capacity <= 0 means unbounded. Leftover temp files from interrupted
// writes are removed; entry files are indexed by name only — payloads
// are validated lazily on Get, so a corrupt entry costs nothing until
// it is asked for.
func Open(dir string, capacity int) (*Store, error) {
	if capacity < 0 {
		capacity = 0
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, cap: capacity, entries: make(map[string]time.Time)}
	for _, de := range names {
		name := de.Name()
		if strings.HasPrefix(name, tmpPrefix) {
			os.Remove(filepath.Join(dir, name)) // interrupted write; never renamed, never visible
			continue
		}
		key, ok := strings.CutSuffix(name, entrySuffix)
		if !ok || !ValidKey(key) {
			continue // foreign file; leave it alone
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		s.entries[key] = info.ModTime()
	}
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
	return s, nil
}

// ValidKey accepts lowercase-hex content addresses (what Spec.Key
// emits). Anything else is rejected so keys can never traverse paths.
// It is exported for the cluster layer: the gateway's peer endpoint and
// the daemon's store-export endpoint reject malformed keys with it
// before any lookup happens.
func ValidKey(key string) bool {
	if len(key) == 0 || len(key) > 128 {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+entrySuffix)
}

// Dir reports the store's directory.
func (s *Store) Dir() string { return s.dir }

// Len reports the number of indexed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Put durably writes val under key: the framed payload goes to a temp
// file in the store directory, then one atomic rename publishes it, so
// a crash mid-write leaves only an invisible temp file (swept on the
// next Open) and readers never see partial entries. Oldest entries are
// evicted beyond the capacity bound.
func (s *Store) Put(key, val string) error {
	if !ValidKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	f, err := os.CreateTemp(s.dir, tmpPrefix+key+"-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	_, err = f.Write(Encode(val))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		// Test-only torn-write injection: the hook may truncate or
		// corrupt tmp (proving Get detects it) or fail the Put outright.
		err = faultinject.Fire(faultinject.StoreWrite, tmp)
	}
	if err == nil {
		err = os.Rename(tmp, s.path(key))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	mtime := time.Time{}
	if info, err := os.Stat(s.path(key)); err == nil {
		mtime = info.ModTime()
	}
	s.mu.Lock()
	s.entries[key] = mtime
	s.puts++
	s.evictLocked()
	s.mu.Unlock()
	return nil
}

// Get returns the payload stored under key. A missing entry is
// (_, false, nil). An entry whose frame fails validation — short file,
// bad header, length or CRC mismatch, i.e. a torn or corrupted write —
// is deleted and reported as a miss so callers recompute instead of
// serving damaged bytes; only host I/O errors surface as err.
func (s *Store) Get(key string) (string, bool, error) {
	if !ValidKey(key) {
		return "", false, fmt.Errorf("store: invalid key %q", key)
	}
	path := s.path(key)
	if err := faultinject.Fire(faultinject.StoreRead, path); err != nil {
		return "", false, fmt.Errorf("store: get %s: %w", key, err)
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		s.count(&s.misses)
		return "", false, nil
	}
	if err != nil {
		return "", false, fmt.Errorf("store: get %s: %w", key, err)
	}
	val, ok := decode(data)
	if !ok {
		s.dropCorrupt(key)
		return "", false, nil
	}
	s.count(&s.hits)
	return val, true, nil
}

// Delete removes the entry stored under key, if any. Deleting an
// absent key is a no-op: the caller's intent — this key must not be
// served again — already holds. Used for entries whose lifetime ends
// before eviction would get to them (a job's resume checkpoint once
// the job completes).
func (s *Store) Delete(key string) error {
	if !ValidKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	if err := os.Remove(s.path(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: delete %s: %w", key, err)
	}
	s.mu.Lock()
	delete(s.entries, key)
	s.mu.Unlock()
	return nil
}

// Encode frames a payload in the store's entry format: a one-line
// `sppstore1 <crc32> <len>` header followed by the raw bytes. The same
// framing serves two jobs — the on-disk entry file, and the wire format
// of the cluster's peer-fetch protocol, where the CRC lets a receiving
// backend validate a copied entry end to end before trusting it.
func Encode(val string) []byte {
	return []byte(fmt.Sprintf("%s %08x %d\n%s", magic, crc32.ChecksumIEEE([]byte(val)), len(val), val))
}

// Decode validates one framed entry — header shape, declared length,
// CRC32 — and extracts the payload. It is the inverse of Encode and the
// only sanctioned way to accept entry bytes from disk or from a peer:
// anything that fails validation is reported false and must be treated
// as absent, never served.
func Decode(data []byte) (string, bool) {
	return decode(data)
}

// decode validates one entry file's frame and extracts the payload.
func decode(data []byte) (string, bool) {
	head, payload, ok := strings.Cut(string(data), "\n")
	if !ok {
		return "", false
	}
	fields := strings.Fields(head)
	if len(fields) != 3 || fields[0] != magic {
		return "", false
	}
	crc, err := strconv.ParseUint(fields[1], 16, 32)
	if err != nil {
		return "", false
	}
	n, err := strconv.Atoi(fields[2])
	if err != nil || n != len(payload) {
		return "", false
	}
	if crc32.ChecksumIEEE([]byte(payload)) != uint32(crc) {
		return "", false
	}
	return payload, true
}

// dropCorrupt removes a failed entry so it is recomputed, never served.
func (s *Store) dropCorrupt(key string) {
	os.Remove(s.path(key))
	s.mu.Lock()
	delete(s.entries, key)
	s.corrupt++
	s.misses++
	s.mu.Unlock()
}

func (s *Store) count(field *int64) {
	s.mu.Lock()
	*field++
	s.mu.Unlock()
}

// evictLocked removes the oldest entries (mod time, then key, so ties
// break deterministically) until the capacity bound holds. Callers hold
// s.mu.
func (s *Store) evictLocked() {
	if s.cap <= 0 || len(s.entries) <= s.cap {
		return
	}
	type ent struct {
		key string
		mt  time.Time
	}
	all := make([]ent, 0, len(s.entries))
	for k, mt := range s.entries {
		all = append(all, ent{k, mt})
	}
	sort.Slice(all, func(i, j int) bool {
		if !all[i].mt.Equal(all[j].mt) {
			return all[i].mt.Before(all[j].mt)
		}
		return all[i].key < all[j].key
	})
	for _, e := range all[:len(all)-s.cap] {
		os.Remove(s.path(e.key))
		delete(s.entries, e.key)
		s.evictions++
	}
}

// Stats returns a snapshot of the cumulative counters.
//
//simlint:allow deadexport counter hook the service fault-matrix tests drive across packages
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:      s.hits,
		Misses:    s.misses,
		Puts:      s.puts,
		Corrupt:   s.corrupt,
		Evictions: s.evictions,
	}
}
