// Package cceh implements Cacheline-Conscious Extendible Hashing (CCEH,
// Nam et al., FAST '19) on the simulated persistent memory, as used by
// the paper's §4.1 case study: a directory of 16 KB segments, each
// holding 256 cacheline-sized buckets, with linear probing over four
// adjacent buckets and a persistence barrier per bucket update. The
// package also provides the paper's speculative helper-thread
// prefetcher.
package cceh

import (
	"fmt"

	"optanesim/internal/mem"
	"optanesim/internal/pmem"
	"optanesim/internal/workload"
)

// Layout constants matching the paper's description of CCEH.
const (
	// BucketBytes is one cacheline-sized bucket.
	BucketBytes = mem.CachelineSize
	// SlotsPerBucket is 4: a bucket holds four 16-byte key-value pairs.
	SlotsPerBucket = BucketBytes / 16
	// BucketsPerSegment is 256, making a segment 16 KB of buckets.
	BucketsPerSegment = 256
	// bucketBits indexes a bucket within a segment.
	bucketBits = 8
	// ProbeBuckets is the linear-probing window on a hash collision.
	ProbeBuckets = 4
	// SegmentBytes is the allocation size of one segment: a metadata
	// cacheline followed by 256 buckets.
	SegmentBytes = (1 + BucketsPerSegment) * BucketBytes
)

// Tags used for Table 1's time attribution.
const (
	TagSegment = "segment-metadata"
	TagPersist = "persists"
	TagMisc    = "misc"
)

// Compute costs of the insert path (hashing, slot comparisons) and of
// the YCSB-style client driving it; they land in the Misc bucket like
// the paper's perf-based breakdown.
const (
	HashComputeCycles = 60
	BucketScanCycles  = 25
	YCSBClientCycles  = 250
)

// Table is one CCEH instance. All persistent state lives in the
// session's heap; the struct caches only the directory location.
//
// Directory layout (PM): [0]=global depth, [1..]=segment addresses.
// Segment layout (PM): cacheline 0 = metadata (word 0: local depth),
// then 256 buckets of four (key, value) slots; key 0 marks a free slot.
type Table struct {
	heap    *pmem.Heap
	super   mem.Addr // superblock cell holding the directory address
	dir     mem.Addr // address of the directory block
	dirSize int      // entries in the directory

	splits int
}

// hashKey mixes a key into a uniform 64-bit hash.
func hashKey(k uint64) uint64 { return workload.SplitMix64(k ^ 0x5851F42D4C957F2D) }

// New builds a CCEH table with 2^initialDepth segments on the session's
// heap, persisting the initial structure.
func New(s *pmem.Session, h *pmem.Heap, initialDepth uint) *Table {
	t := &Table{heap: h}
	t.super = h.Alloc(mem.CachelineSize, mem.CachelineSize)
	n := 1 << initialDepth
	t.dirSize = n
	t.dir = h.Alloc(uint64(8*(1+n)), mem.CachelineSize)
	s.Store64(t.dir, uint64(initialDepth))
	for i := 0; i < n; i++ {
		seg := t.newSegment(s, initialDepth)
		s.Store64(t.dirEntry(i), uint64(seg))
	}
	s.Persist(t.dir, 8*(1+n))
	// Publish the directory in the superblock only after it is fully
	// persistent, so a crash never exposes a half-built directory.
	s.Store64(t.super, uint64(t.dir))
	s.Persist(t.super, 8)
	return t
}

// Open rebinds a table to its persistent state (e.g. on a post-crash
// image) via the superblock cell returned by Super. Statistics counters
// restart at zero. Run Recover before trusting the directory of an
// image taken mid-split.
func Open(s *pmem.Session, h *pmem.Heap, super mem.Addr) *Table {
	t := &Table{heap: h, super: super}
	t.dir = mem.Addr(s.Peek64(super))
	t.dirSize = 1 << uint(s.Peek64(t.dir))
	return t
}

// Super returns the table's superblock address (holds the directory
// pointer), for reopening with Open.
func (t *Table) Super() mem.Addr { return t.super }

func (t *Table) dirEntry(i int) mem.Addr { return t.dir + mem.Addr(8*(1+i)) }

// newSegment allocates and initializes a segment with the given local
// depth.
func (t *Table) newSegment(s *pmem.Session, localDepth uint) mem.Addr {
	seg := t.heap.Alloc(SegmentBytes, mem.XPLineSize)
	s.Store64(seg, uint64(localDepth))
	s.Persist(seg, 8)
	return seg
}

// GlobalDepth returns the table's current global depth.
func (t *Table) GlobalDepth(s *pmem.Session) uint {
	return uint(s.Peek64(t.dir))
}

// Splits returns the number of segment splits performed.
func (t *Table) Splits() int { return t.splits }

// dirIndex computes the directory slot for a hash under depth bits.
func dirIndex(h uint64, depth uint) int {
	if depth == 0 {
		return 0
	}
	return int(h >> (64 - depth))
}

// bucketIndex computes the in-segment bucket for a hash.
func bucketIndex(h uint64) int { return int(h & (BucketsPerSegment - 1)) }

// bucketAddr returns the address of bucket b in segment seg.
func bucketAddr(seg mem.Addr, b int) mem.Addr {
	return seg + mem.Addr((1+b)*BucketBytes)
}

// Insert adds a key-value pair (key must be non-zero), splitting
// segments as needed. It charges the access pattern the paper describes:
// a directory read, the segment-metadata read, bucket probes, the bucket
// store, and the persistence barrier. Attribution tags are set for
// Table 1. Duplicate keys overwrite the existing value.
func (t *Table) Insert(s *pmem.Session, key, value uint64) error {
	if key == 0 {
		return fmt.Errorf("cceh: zero key is reserved")
	}
	h := hashKey(key)
	for attempt := 0; attempt < 64; attempt++ {
		s.Tag(TagMisc)
		s.Compute(HashComputeCycles)
		depth := uint(s.Load64(t.dir))
		segAddr := mem.Addr(s.Load64(t.dirEntry(dirIndex(h, depth))))

		// The segment access: the metadata read plus the first bucket
		// probe. Both addresses are known once the directory entry
		// arrives, so they issue in parallel; the random media read
		// dominates and is the paper's §4.1 bottleneck.
		b0 := bucketIndex(h)
		s.Tag(TagSegment)
		s.LoadGroup(segAddr, bucketAddr(segAddr, b0))
		localDepth := uint(s.Peek64(segAddr))
		_ = localDepth

		s.Tag(TagMisc)
		for p := 0; p < ProbeBuckets; p++ {
			b := bucketAddr(segAddr, (b0+p)&(BucketsPerSegment-1))
			if p > 0 {
				s.LoadLine(b)
			}
			s.Compute(BucketScanCycles)
			for slot := 0; slot < SlotsPerBucket; slot++ {
				slotAddr := b + mem.Addr(16*slot)
				existing := s.Peek64(slotAddr)
				if existing == key {
					s.Poke64(slotAddr+8, value)
					s.StoreLine(b)
					s.Tag(TagPersist)
					s.Flush(b, BucketBytes)
					s.Fence()
					s.Tag("")
					return nil
				}
				if existing == 0 {
					// Value before key: the 8-byte key store is the atomic
					// publish, so a crash never exposes a key with a torn
					// (stale) value.
					s.Poke64(slotAddr+8, value)
					s.Poke64(slotAddr, key)
					s.StoreLine(b)
					s.Tag(TagPersist)
					s.Flush(b, BucketBytes)
					s.Fence()
					s.Tag("")
					return nil
				}
			}
		}
		// All probe targets full: split and retry.
		t.split(s, h)
	}
	s.Tag("")
	return fmt.Errorf("cceh: insert failed after repeated splits")
}

// Lookup returns the value stored for key.
func (t *Table) Lookup(s *pmem.Session, key uint64) (uint64, bool) {
	h := hashKey(key)
	s.Tag(TagMisc)
	depth := uint(s.Load64(t.dir))
	segAddr := mem.Addr(s.Load64(t.dirEntry(dirIndex(h, depth))))
	b0 := bucketIndex(h)
	s.Tag(TagSegment)
	s.LoadGroup(segAddr, bucketAddr(segAddr, b0))
	s.Tag(TagMisc)
	for p := 0; p < ProbeBuckets; p++ {
		b := bucketAddr(segAddr, (b0+p)&(BucketsPerSegment-1))
		if p > 0 {
			s.LoadLine(b)
		}
		for slot := 0; slot < SlotsPerBucket; slot++ {
			slotAddr := b + mem.Addr(16*slot)
			if s.Peek64(slotAddr) == key {
				v := s.Peek64(slotAddr + 8)
				s.Tag("")
				return v, true
			}
		}
	}
	// Rare overflow region: keys displaced outside the probing window by
	// placeAnywhere during a skewed split are found by a segment scan.
	for b := 0; b < BucketsPerSegment; b++ {
		ba := bucketAddr(segAddr, b)
		for slot := 0; slot < SlotsPerBucket; slot++ {
			slotAddr := ba + mem.Addr(16*slot)
			if s.Peek64(slotAddr) == key {
				s.LoadLine(ba)
				v := s.Peek64(slotAddr + 8)
				s.Tag("")
				return v, true
			}
		}
	}
	s.Tag("")
	return 0, false
}

// split divides the segment containing hash h into two segments of
// localDepth+1, doubling the directory if necessary, and persists the
// updated structure.
func (t *Table) split(s *pmem.Session, h uint64) {
	depth := uint(s.Load64(t.dir))
	oldIdx := dirIndex(h, depth)
	oldSeg := mem.Addr(s.Load64(t.dirEntry(oldIdx)))
	localDepth := uint(s.Load64(oldSeg))

	if localDepth == depth {
		t.doubleDirectory(s)
		depth = uint(s.Load64(t.dir))
		oldIdx = dirIndex(h, depth)
	}

	left := t.newSegment(s, localDepth+1)
	right := t.newSegment(s, localDepth+1)

	// Redistribute entries by the next hash bit.
	for b := 0; b < BucketsPerSegment; b++ {
		src := bucketAddr(oldSeg, b)
		s.LoadLine(src)
		for slot := 0; slot < SlotsPerBucket; slot++ {
			k := s.Peek64(src + mem.Addr(16*slot))
			if k == 0 {
				continue
			}
			v := s.Peek64(src + mem.Addr(16*slot+8))
			kh := hashKey(k)
			dst := left
			if kh>>(63-localDepth)&1 == 1 {
				dst = right
			}
			if !t.placeDuringSplit(s, dst, kh, k, v) {
				// Extremely skewed data: place linearly anywhere.
				t.placeAnywhere(s, dst, k, v)
			}
		}
	}
	s.Persist(left, SegmentBytes)
	s.Persist(right, SegmentBytes)

	// Redirect every directory entry that pointed at the old segment.
	span := 1 << (depth - localDepth) // directory slots covered
	first := (oldIdx >> (depth - localDepth)) << (depth - localDepth)
	for i := 0; i < span; i++ {
		dst := left
		if i >= span/2 {
			dst = right
		}
		s.Store64(t.dirEntry(first+i), uint64(dst))
	}
	s.Persist(t.dirEntry(first), 8*span)
	t.splits++
}

// placeDuringSplit inserts into the probing window without splitting.
func (t *Table) placeDuringSplit(s *pmem.Session, seg mem.Addr, kh, key, value uint64) bool {
	b0 := bucketIndex(kh)
	for p := 0; p < ProbeBuckets; p++ {
		b := bucketAddr(seg, (b0+p)&(BucketsPerSegment-1))
		for slot := 0; slot < SlotsPerBucket; slot++ {
			slotAddr := b + mem.Addr(16*slot)
			if s.Peek64(slotAddr) == 0 {
				s.Poke64(slotAddr+8, value)
				s.Poke64(slotAddr, key)
				s.StoreLine(b)
				return true
			}
		}
	}
	return false
}

// placeAnywhere linearly scans the whole segment for a free slot; used
// only under extreme skew so splits always terminate.
func (t *Table) placeAnywhere(s *pmem.Session, seg mem.Addr, key, value uint64) {
	for b := 0; b < BucketsPerSegment; b++ {
		ba := bucketAddr(seg, b)
		for slot := 0; slot < SlotsPerBucket; slot++ {
			slotAddr := ba + mem.Addr(16*slot)
			if s.Peek64(slotAddr) == 0 {
				s.Poke64(slotAddr+8, value)
				s.Poke64(slotAddr, key)
				s.StoreLine(ba)
				return
			}
		}
	}
	panic("cceh: split target segment full")
}

// doubleDirectory doubles the directory, copying entries.
func (t *Table) doubleDirectory(s *pmem.Session) {
	depth := uint(s.Load64(t.dir))
	oldSize := t.dirSize
	newSize := oldSize * 2
	newDir := t.heap.Alloc(uint64(8*(1+newSize)), mem.CachelineSize)
	s.Store64(newDir, uint64(depth+1))
	for i := 0; i < oldSize; i++ {
		v := s.Load64(t.dirEntry(i))
		s.Store64(newDir+mem.Addr(8*(1+2*i)), v)
		s.Store64(newDir+mem.Addr(8*(1+2*i+1)), v)
	}
	s.Persist(newDir, 8*(1+newSize))
	// Atomic publish: the superblock flips to the new directory only
	// after the whole copy is persistent. A crash on either side of the
	// flip sees a complete directory.
	s.Store64(t.super, uint64(newDir))
	s.Persist(t.super, 8)
	t.dir = newDir
	t.dirSize = newSize
}

// HeapFor estimates the heap bytes needed for n keys (with headroom),
// for sizing the PM heap before a run. With 4-bucket linear probing the
// observed load is ~225 keys per segment at split time.
func HeapFor(n int) uint64 {
	segs := uint64(n)/150 + 128
	return segs*SegmentBytes + (16 << 20)
}

// Delete removes key from the table, reporting whether it was present.
// Deletion zeroes the key word (a single atomic 8-byte store) and
// persists the bucket, matching CCEH's tombstone-free scheme.
func (t *Table) Delete(s *pmem.Session, key uint64) bool {
	if key == 0 {
		return false
	}
	h := hashKey(key)
	s.Tag(TagMisc)
	depth := uint(s.Load64(t.dir))
	segAddr := mem.Addr(s.Load64(t.dirEntry(dirIndex(h, depth))))
	b0 := bucketIndex(h)
	s.Tag(TagSegment)
	s.LoadGroup(segAddr, bucketAddr(segAddr, b0))
	s.Tag(TagMisc)
	for p := 0; p < ProbeBuckets; p++ {
		b := bucketAddr(segAddr, (b0+p)&(BucketsPerSegment-1))
		if p > 0 {
			s.LoadLine(b)
		}
		for slot := 0; slot < SlotsPerBucket; slot++ {
			slotAddr := b + mem.Addr(16*slot)
			if s.Peek64(slotAddr) == key {
				s.Poke64(slotAddr, 0)
				s.StoreLine(b)
				s.Tag(TagPersist)
				s.Flush(b, BucketBytes)
				s.Fence()
				s.Tag("")
				return true
			}
		}
	}
	// Overflow region (placeAnywhere during skewed splits).
	for b := 0; b < BucketsPerSegment; b++ {
		ba := bucketAddr(segAddr, b)
		for slot := 0; slot < SlotsPerBucket; slot++ {
			slotAddr := ba + mem.Addr(16*slot)
			if s.Peek64(slotAddr) == key {
				s.Poke64(slotAddr, 0)
				s.StoreLine(ba)
				s.Tag(TagPersist)
				s.Flush(ba, BucketBytes)
				s.Fence()
				s.Tag("")
				return true
			}
		}
	}
	s.Tag("")
	return false
}

// Validate checks the extendible-hashing structural invariants through
// the data plane (no simulated time): every directory entry points to a
// segment inside the heap; local depths never exceed the global depth;
// and the entries referencing one segment form a contiguous, aligned
// group of size 2^(global-local). It returns the first violation found.
func (t *Table) Validate(s *pmem.Session) error {
	depth := uint(s.Peek64(t.dir))
	if t.dirSize != 1<<depth {
		return fmt.Errorf("cceh: directory size %d does not match depth %d", t.dirSize, depth)
	}
	i := 0
	for i < t.dirSize {
		seg := mem.Addr(s.Peek64(t.dirEntry(i)))
		if !t.heap.Contains(seg) {
			return fmt.Errorf("cceh: entry %d points outside the heap", i)
		}
		local := uint(s.Peek64(seg))
		if local > depth {
			return fmt.Errorf("cceh: entry %d local depth %d > global %d", i, local, depth)
		}
		span := 1 << (depth - local)
		if i%span != 0 {
			return fmt.Errorf("cceh: entry %d starts a misaligned span of %d", i, span)
		}
		for j := i; j < i+span; j++ {
			if mem.Addr(s.Peek64(t.dirEntry(j))) != seg {
				return fmt.Errorf("cceh: entries %d and %d disagree within a span", i, j)
			}
		}
		i += span
	}
	return nil
}

// Recover repairs the directory after a crash taken mid-split. A split
// persists both child segments before redirecting the directory
// entries, and the old segment keeps all its keys, so any entry of a
// torn redirect span can be safely reverted to the shallowest (oldest)
// segment referenced inside that span — no data is lost, the children
// merely leak until the next split. It returns the number of entries
// rewritten and persists the repaired directory.
func (t *Table) Recover(s *pmem.Session) int {
	depth := uint(s.Peek64(t.dir))
	repaired := 0
	for pass := 0; pass <= t.dirSize; pass++ {
		changed := false
		for i := 0; i < t.dirSize; {
			seg := mem.Addr(s.Peek64(t.dirEntry(i)))
			local := uint(s.Peek64(seg))
			if local > depth {
				local = depth // defensive: never widen past one entry
			}
			span := 1 << (depth - local)
			base := i &^ (span - 1)
			// Find the shallowest segment covering this span; its span is
			// the widest and subsumes the others.
			minSeg, minLocal, conflict := seg, local, false
			for j := base; j < base+span; j++ {
				sj := mem.Addr(s.Peek64(t.dirEntry(j)))
				if sj != seg {
					conflict = true
				}
				lj := uint(s.Peek64(sj))
				if lj < minLocal {
					minSeg, minLocal = sj, lj
				}
			}
			if !conflict {
				i = base + span
				continue
			}
			rspan := 1 << (depth - minLocal)
			rbase := base &^ (rspan - 1)
			for j := rbase; j < rbase+rspan; j++ {
				if mem.Addr(s.Peek64(t.dirEntry(j))) != minSeg {
					s.Poke64(t.dirEntry(j), uint64(minSeg))
					repaired++
				}
			}
			changed = true
			i = rbase + rspan
		}
		if !changed {
			break
		}
	}
	if repaired > 0 {
		s.Flush(t.dirEntry(0), 8*t.dirSize)
		s.FenceOrdered()
	}
	return repaired
}

// Len counts stored keys through the data plane (no simulated time).
func (t *Table) Len(s *pmem.Session) int {
	depth := uint(s.Peek64(t.dir))
	n := 0
	seen := make(map[mem.Addr]bool)
	for i := 0; i < t.dirSize; i++ {
		seg := mem.Addr(s.Peek64(t.dirEntry(i)))
		if seen[seg] {
			continue
		}
		seen[seg] = true
		for b := 0; b < BucketsPerSegment; b++ {
			ba := bucketAddr(seg, b)
			for slot := 0; slot < SlotsPerBucket; slot++ {
				if s.Peek64(ba+mem.Addr(16*slot)) != 0 {
					n++
				}
			}
		}
	}
	_ = depth
	return n
}
