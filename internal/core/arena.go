package core

import (
	"bytes"
	"cmp"
	"slices"
)

// Pass B's grouping: each spill partition is grouped in a groupArena, a
// set of flat slabs reused from partition to partition and table to
// table, so grouping a partition allocates nothing once the slabs have
// grown to the largest partition. From two workers on, one goroutine
// groups partition p+1 in a second arena while the calling goroutine
// emits partition p.

// groupArena holds one partition's merge groups: an open-addressed table
// from key to group, the groups' hashes, masses, keys and codes in slabs
// of fixed width, their (hash, key bytes) order and, for an internal
// table under Group-and-Merge, their members, counting-sorted by group
// with each group's members in record order.
type groupArena struct {
	lay    recLayout
	slots  []int32 // group index + 1 per slot; 0 is empty
	hashes []uint64
	gws    []float64
	keys   []byte  // lay.keyEnd-8 bytes per group
	codes  []int32 // nc+npc codes per group, from its first record
	order  []int32 // groups in (hash, key bytes) order

	recGroup []int32     // each record's group, in record order
	recs     []memberRec // each record as a member, in record order
	start    []int32     // group g's members are members[start[g]:start[g+1]]
	members  []memberRec

	buf []byte // the spill run's read block buffer
}

// group is one merge group of a partition: the parent key its members
// share, its weight mass, its codes after the identifier bins (content,
// then under the ablation the parent's content) and, for internal tables
// under Group-and-Merge, its members in sample order.
type group struct {
	pk      int64
	gw      float64
	codes   []int32
	members []memberRec
}

// build groups partition part of the raw run, whose records have layout
// lay.
func (a *groupArena) build(run *spillRun, part int, lay recLayout) error {
	a.lay = lay
	klen, ncodes, codeOff := lay.keyEnd-8, lay.nc+lay.npc, lay.codeOff()
	size := 16
	for size < 2*run.count(part) {
		size *= 2
	}
	a.slots = slices.Grow(a.slots[:0], size)[:size]
	clear(a.slots)
	mask := uint64(size - 1)
	a.hashes, a.gws, a.keys, a.codes = a.hashes[:0], a.gws[:0], a.keys[:0], a.codes[:0]
	a.recGroup, a.recs = a.recGroup[:0], a.recs[:0]
	err := run.records(part, &a.buf, func(rec []byte) error {
		key := rec[8:lay.keyEnd]
		h := keyHash(key)
		var g int32
		for i := h & mask; ; i = (i + 1) & mask {
			if s := a.slots[i]; s == 0 {
				g = int32(len(a.hashes))
				a.slots[i] = g + 1
				a.hashes = append(a.hashes, h)
				a.gws = append(a.gws, 0)
				a.keys = append(a.keys, key...)
				for j := 0; j < ncodes; j++ {
					a.codes = append(a.codes, getI32(rec[codeOff+4*j:]))
				}
				break
			} else if g = s - 1; a.hashes[g] == h && bytes.Equal(a.keys[int(g)*klen:int(g+1)*klen], key) {
				break
			}
		}
		w := getF64(rec)
		a.gws[g] += w
		if lay.withSpans {
			a.recGroup = append(a.recGroup, g)
			a.recs = append(a.recs, memberRec{idx: int64(getU64(rec[lay.rawSize-8:])), w: w})
		}
		return nil
	})
	if err != nil {
		return err
	}
	ng := len(a.hashes)
	a.order = slices.Grow(a.order[:0], ng)[:ng]
	for g := range a.order {
		a.order[g] = int32(g)
	}
	slices.SortFunc(a.order, func(x, y int32) int {
		if c := cmp.Compare(a.hashes[x], a.hashes[y]); c != 0 {
			return c
		}
		return bytes.Compare(a.keys[int(x)*klen:int(x+1)*klen], a.keys[int(y)*klen:int(y+1)*klen])
	})
	if !lay.withSpans {
		return nil
	}
	// start[g+1] counts group g; the prefix sum turns start[g] into the
	// first slot of group g, and placing each record advances it to the
	// first slot of group g+1, so a shift by one restores the offsets.
	a.start = slices.Grow(a.start[:0], ng+1)[:ng+1]
	clear(a.start)
	for _, g := range a.recGroup {
		a.start[g+1]++
	}
	for g := 1; g <= ng; g++ {
		a.start[g] += a.start[g-1]
	}
	a.members = slices.Grow(a.members[:0], len(a.recs))[:len(a.recs)]
	for i, g := range a.recGroup {
		a.members[a.start[g]] = a.recs[i]
		a.start[g]++
	}
	copy(a.start[1:], a.start[:ng])
	a.start[0] = 0
	return nil
}

// group returns group g; its slices alias the arena.
func (a *groupArena) group(g int32) group {
	klen, ncodes := a.lay.keyEnd-8, a.lay.nc+a.lay.npc
	grp := group{
		pk:    int64(getU64(a.keys[int(g)*klen:])),
		gw:    a.gws[g],
		codes: a.codes[int(g)*ncodes : int(g+1)*ncodes],
	}
	if a.lay.withSpans {
		grp.members = a.members[a.start[g]:a.start[g+1]]
	}
	return grp
}

// groupAll groups every partition of the raw run in order and hands each
// arena to emit on the calling goroutine. From two workers and two
// partitions on, one goroutine groups partition p+1 while emit runs on
// partition p; otherwise it starts no goroutine. The run is dropped as
// soon as its last partition is grouped. An error, from grouping or from
// emit, returns once the grouping goroutine has exited.
func (m *merger) groupAll(raw *spillRun, lay recLayout, emit func(*groupArena) error) error {
	P := len(raw.blocks)
	if len(m.scans) < 2 || P < 2 {
		a := &m.arenas[0]
		for part := 0; part < P; part++ {
			if err := a.build(raw, part, lay); err != nil {
				return err
			}
			if part == P-1 {
				raw.drop()
			}
			if err := emit(a); err != nil {
				return err
			}
		}
		return nil
	}
	type built struct {
		a   *groupArena
		err error
	}
	free := make(chan *groupArena, len(m.arenas))
	for i := range m.arenas {
		free <- &m.arenas[i]
	}
	ready := make(chan built, len(m.arenas))
	done := make(chan struct{})
	go func() {
		defer close(ready)
		for part := 0; part < P; part++ {
			var a *groupArena
			select {
			case a = <-free:
			case <-done:
				return
			}
			err := a.build(raw, part, lay)
			if part == P-1 {
				raw.drop()
			}
			ready <- built{a, err} // never blocks: ready holds every arena
			if err != nil {
				return
			}
		}
	}()
	for b := range ready {
		err := b.err
		if err == nil {
			err = emit(b.a)
		}
		if err != nil {
			close(done)
			for range ready {
			}
			return err
		}
		free <- b.a
	}
	return nil
}
