// Package store implements the .osnt binary trajectory format and the
// directory layout the serving workspace persists trajectories into. A
// recorded random walk is the system's most expensive artifact — every step
// was paid for with a metered API call — and PRs 2–4 made one recording
// answer every estimation workload. This package makes that artifact survive
// process death: a trajectory saved as .osnt and loaded back replays to
// byte-equal estimates, so a restarted server answers previously cached
// queries with zero API spend.
//
// # Format (version 2)
//
// All integers are little-endian and unsigned on the wire. A file is a
// fixed header, the per-walker accounting arrays, one start and one step
// stream per walker, an interned label store, and a trailing CRC:
//
//	offset  size              field
//	0       4                 magic "OSNT"
//	4       4                 format version (2)
//	8       4                 walkers (W)
//	12      4                 HT thinning gap
//	16      4                 flags (bit 0: budget-driven recording)
//	20      4                 recording burn-in (steps paid before sampling)
//	24      8                 numNodes  (graph prior |V|)
//	32      8                 numEdges  (graph prior |E|)
//	40      8                 apiCalls  (total billed recording cost)
//	48      8                 totalSteps (S, summed across walkers)
//	56      8                 totalNeighbors (N, neighbor entries across all starts and steps)
//	64      8                 labelNodes (L, distinct labeled nodes referenced)
//	72      8                 labelTable (T, distinct label values)
//	80      8                 labelRefs  (R, total per-node label references)
//	88      8                 graphVersion (delta-log version of the recording graph)
//	96      8                 graphFingerprint (content hash of the recording graph)
//	104     W*8               per-walker billed calls
//	...     W*4               per-walker step counts
//	...     variable          W start records:  node, degree, nbrLen, nbrLen neighbors (u32 each)
//	...     variable          S step records:   prev, node, degree, nbrLen, nbrLen neighbors (u32 each), walker-major
//	...     L*4               labeled node IDs, sorted ascending
//	...     (L+1)*4           label offsets into the refs array
//	...     T*4               label table: sorted distinct label values
//	...     R*4               label refs: indices into the label table
//	...     4                 CRC-32 (IEEE) of everything before it
//
// The label sections make a .osnt self-contained: the file stores, for every
// node the trajectory references (start nodes, step endpoints and all their
// recorded neighbors), that node's label set exactly as the recording
// session read it — interned through a distinct-value table like the .osnb
// graph snapshot. A loaded trajectory therefore replays without the graph,
// and replays bit-identically, because the labels it consults are the very
// bytes the live estimators saw.
//
// Version bumps are semantic, exactly as for .osnb: a reader rejects any
// version it does not know, and any layout change requires a new version.
// The trailing CRC pins the exact byte span of a version's layout.
package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
)

// Magic identifies a .osnt file; the first four bytes of every saved
// trajectory.
const Magic = "OSNT"

// Version is the current format version written by this package. Version 2
// added the recording graph's delta-log version and content fingerprint to
// the header, so the serving layer can tell exactly which graph state a
// persisted trajectory replays — and top up stale ones incrementally.
const Version = 2

// Ext is the conventional file extension for trajectory files.
const Ext = ".osnt"

// headerSize is the fixed byte length of the v2 header.
const headerSize = 104

// maxSaneCount guards the reader's allocations against a corrupt or hostile
// header: no section may claim more than 2^35 elements, far beyond any
// trajectory this code records.
const maxSaneCount = 1 << 35

// maxSaneWalkers bounds the walker count a header may claim; fleets are
// sized to CPU cores, not millions.
const maxSaneWalkers = 1 << 20

// flagBudgetDriven marks a recording whose k was an API-call budget rather
// than a sample count.
const flagBudgetDriven = 1 << 0

// layout is the byte-level shape of one trajectory: the section counts the
// header carries plus the interned label snapshot, computed once and shared
// by Write and EncodedSize so the two can never disagree.
type layout struct {
	walkers        int
	totalSteps     int64
	totalNeighbors int64
	// labelNodes holds the sorted distinct referenced nodes that carry at
	// least one label; labelOff indexes their label sets in labelVals, whose
	// values the file stores as indices into the sorted table.
	labelNodes []graph.Node
	labelOff   []uint32
	table      []graph.Label
	labelVals  []graph.Label
}

// computeLayout reads the section totals off t's columns — every neighbor
// list lives in the shared arena, so the neighbor total is the arena length
// — and takes the label sections from t's LabelSnapshot, which a recording
// through an external source or a decoded file already carries.
func computeLayout(t *core.Trajectory) layout {
	lay := layout{
		walkers:        t.NumWalkers(),
		totalSteps:     int64(t.Samples()),
		totalNeighbors: int64(len(t.Data().Arena)),
	}
	lay.labelNodes, lay.labelOff, lay.table, lay.labelVals = t.LabelSnapshot().Sections()
	return lay
}

// ExpectedSize returns the exact byte length of a v2 trajectory file with
// the given header counts. Exposed for tests and integrity tooling; the
// reader cross-checks it against the actual byte count before parsing.
func ExpectedSize(walkers, totalSteps, totalNeighbors, labelNodes, labelTable, labelRefs uint64) int64 {
	return int64(headerSize) +
		int64(walkers)*8 + // per-walker calls
		int64(walkers)*4 + // per-walker step counts
		int64(walkers)*12 + // start records (node, degree, nbrLen)
		int64(totalSteps)*16 + // step records (prev, node, degree, nbrLen)
		int64(totalNeighbors)*4 + // all neighbor entries (starts + steps)
		int64(labelNodes)*4 + // labeled node IDs
		int64(labelNodes+1)*4 + // label offsets
		int64(labelTable)*4 + // label table
		int64(labelRefs)*4 + // label refs
		4 // CRC
}

// EncodedSize returns the exact .osnt byte length Write would produce for t.
// The serving layer uses it as the trajectory's cache weight, so the byte
// budget it enforces in memory equals the bytes the store holds on disk.
func EncodedSize(t *core.Trajectory) int64 {
	if t == nil {
		return 0
	}
	lay := computeLayout(t)
	return ExpectedSize(uint64(lay.walkers), uint64(lay.totalSteps), uint64(lay.totalNeighbors),
		uint64(len(lay.labelNodes)), uint64(len(lay.table)), uint64(len(lay.labelVals)))
}

// Write serializes t to w in .osnt format. The write streams through a
// buffered writer; memory overhead beyond the trajectory itself is, for a
// trajectory not already bound to a LabelSnapshot, the snapshot built for
// the write (one entry per distinct referenced node).
func Write(w io.Writer, t *core.Trajectory) error {
	if t == nil || t.NumWalkers() == 0 {
		return fmt.Errorf("store: cannot write an empty trajectory")
	}
	d := t.Data()
	if !t.HasStarts() || len(t.PerWalkerCalls) != t.NumWalkers() {
		return fmt.Errorf("store: trajectory has %d step streams but %d starts and %d per-walker bills",
			t.NumWalkers(), len(d.StartNode), len(t.PerWalkerCalls))
	}
	lay := computeLayout(t)

	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<16)

	var hdr [headerSize]byte
	copy(hdr[0:4], Magic)
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(lay.walkers))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(t.ThinGap))
	var flags uint32
	if t.BudgetDriven {
		flags |= flagBudgetDriven
	}
	binary.LittleEndian.PutUint32(hdr[16:20], flags)
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(t.BurnIn))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(t.NumNodes))
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(t.NumEdges))
	binary.LittleEndian.PutUint64(hdr[40:48], uint64(t.APICalls))
	binary.LittleEndian.PutUint64(hdr[48:56], uint64(lay.totalSteps))
	binary.LittleEndian.PutUint64(hdr[56:64], uint64(lay.totalNeighbors))
	binary.LittleEndian.PutUint64(hdr[64:72], uint64(len(lay.labelNodes)))
	binary.LittleEndian.PutUint64(hdr[72:80], uint64(len(lay.table)))
	binary.LittleEndian.PutUint64(hdr[80:88], uint64(len(lay.labelVals)))
	binary.LittleEndian.PutUint64(hdr[88:96], t.GraphVersion)
	binary.LittleEndian.PutUint64(hdr[96:104], t.GraphFingerprint)
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("store: writing header: %w", err)
	}

	// The columns serialize without any row materialization: the arena holds
	// start lists first, then step lists in walker-major order — exactly the
	// file's record order — so every neighbor list is a contiguous subslice.
	enc := encoder{w: bw}
	for _, calls := range t.PerWalkerCalls {
		enc.u64(uint64(calls))
	}
	W := t.NumWalkers()
	for wi := 0; wi < W; wi++ {
		enc.u32(uint32(t.WalkerLen(wi)))
	}
	for wi := 0; wi < W; wi++ {
		enc.u32(uint32(d.StartNode[wi]))
		enc.u32(uint32(d.StartDegree[wi]))
		enc.u32(uint32(d.StartOff[wi+1] - d.StartOff[wi]))
		enc.nodes(d.Arena[d.StartOff[wi]:d.StartOff[wi+1]])
	}
	for i := 0; i < len(d.Prev); i++ {
		enc.u32(uint32(d.Prev[i]))
		enc.u32(uint32(d.Node[i]))
		enc.u32(uint32(d.Degree[i]))
		enc.u32(uint32(d.NbrOff[i+1] - d.NbrOff[i]))
		enc.nodes(d.Arena[d.NbrOff[i]:d.NbrOff[i+1]])
	}
	for _, u := range lay.labelNodes {
		enc.u32(uint32(u))
	}
	for _, off := range lay.labelOff {
		enc.u32(off)
	}
	for _, l := range lay.table {
		enc.u32(uint32(l))
	}
	for _, l := range lay.labelVals {
		ref, _ := slices.BinarySearch(lay.table, l)
		enc.u32(uint32(ref))
	}
	if enc.err != nil {
		return fmt.Errorf("store: writing trajectory sections: %w", enc.err)
	}

	// The CRC covers everything buffered so far; flush before reading it.
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("store: flushing payload: %w", err)
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	if _, err := w.Write(tail[:]); err != nil {
		return fmt.Errorf("store: writing checksum: %w", err)
	}
	return nil
}

// Read parses a .osnt stream and reconstructs the trajectory, bound to the
// label store the file carries. Every count and node ID is validated before
// use, and the trailing CRC must match, so a truncated, bit-flipped or
// hostile stream fails fast instead of replaying garbage.
//
// The whole stream is slurped into one buffer, checksummed in a single
// crc32 pass, and parsed with a bounds-checked cursor. The previous decoder
// fed the running CRC four bytes at a time through an io.ReadFull per word,
// which made reloading a persisted trajectory slower than re-recording it
// in-process (BENCH_store.json's cold_over_reload_speedup < 1); one
// table-driven CRC sweep plus direct slice reads restores the reload win.
func Read(r io.Reader) (*core.Trajectory, error) {
	raw, err := io.ReadAll(bufio.NewReaderSize(r, 1<<16))
	if err != nil {
		return nil, fmt.Errorf("store: reading trajectory stream: %w", err)
	}
	return decode(raw)
}

// Decode parses one complete in-memory .osnt byte image, applying the same
// CRC, size and structural validation as Read. It is the entry point for
// trajectory bytes that arrive over the network rather than from disk — the
// replication pull path decodes (and thereby verifies) a peer's file before
// admitting it to the local store.
func Decode(raw []byte) (*core.Trajectory, error) { return decode(raw) }

// decode parses one complete .osnt byte image.
func decode(raw []byte) (*core.Trajectory, error) {
	if len(raw) < headerSize+4 {
		return nil, fmt.Errorf("store: %d bytes is too short for a .osnt file", len(raw))
	}
	hdr := raw[:headerSize]
	if string(hdr[0:4]) != Magic {
		return nil, fmt.Errorf("store: bad magic %q (not a .osnt file)", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != Version {
		return nil, fmt.Errorf("store: unsupported format version %d (this build reads version %d)", v, Version)
	}
	walkers := binary.LittleEndian.Uint32(hdr[8:12])
	thinGap := binary.LittleEndian.Uint32(hdr[12:16])
	flags := binary.LittleEndian.Uint32(hdr[16:20])
	burnIn := binary.LittleEndian.Uint32(hdr[20:24])
	numNodes := binary.LittleEndian.Uint64(hdr[24:32])
	numEdges := binary.LittleEndian.Uint64(hdr[32:40])
	apiCalls := binary.LittleEndian.Uint64(hdr[40:48])
	totalSteps := binary.LittleEndian.Uint64(hdr[48:56])
	totalNeighbors := binary.LittleEndian.Uint64(hdr[56:64])
	labelNodes := binary.LittleEndian.Uint64(hdr[64:72])
	labelTable := binary.LittleEndian.Uint64(hdr[72:80])
	labelRefs := binary.LittleEndian.Uint64(hdr[80:88])
	graphVersion := binary.LittleEndian.Uint64(hdr[88:96])
	graphFP := binary.LittleEndian.Uint64(hdr[96:104])

	if walkers == 0 || walkers > maxSaneWalkers {
		return nil, fmt.Errorf("store: implausible walker count %d in header (corrupt file?)", walkers)
	}
	if numNodes > math.MaxInt32 {
		return nil, fmt.Errorf("store: %d nodes exceed the int32 node ID space", numNodes)
	}
	for _, c := range []uint64{numEdges, apiCalls, totalSteps, totalNeighbors, labelNodes, labelTable, labelRefs} {
		if c > maxSaneCount {
			return nil, fmt.Errorf("store: implausible section size %d in header (corrupt file?)", c)
		}
	}
	if labelNodes > numNodes || labelRefs < labelNodes {
		if labelNodes > numNodes {
			return nil, fmt.Errorf("store: %d labeled nodes exceed the %d-node graph", labelNodes, numNodes)
		}
		return nil, fmt.Errorf("store: %d label refs cannot cover %d labeled nodes", labelRefs, labelNodes)
	}
	if want := ExpectedSize(uint64(walkers), totalSteps, totalNeighbors, labelNodes, labelTable, labelRefs); int64(len(raw)) != want {
		return nil, fmt.Errorf("store: file is %d bytes, header implies %d (truncated or corrupt)", len(raw), want)
	}
	if got, want := crc32.ChecksumIEEE(raw[:len(raw)-4]), binary.LittleEndian.Uint32(raw[len(raw)-4:]); got != want {
		return nil, fmt.Errorf("store: checksum mismatch (file %08x, computed %08x): corrupt trajectory", want, got)
	}
	dec := &cursor{buf: raw[headerSize : len(raw)-4]}

	checkNode := func(u uint32, what string) (graph.Node, error) {
		if uint64(u) >= numNodes {
			return 0, fmt.Errorf("store: %s ID %d out of range [0,%d)", what, u, numNodes)
		}
		return graph.Node(u), nil
	}

	W := int(walkers)
	perCalls := make([]int64, W)
	for i := range perCalls {
		perCalls[i] = int64(dec.u64())
	}
	stepCounts := make([]uint32, W)
	var sumSteps uint64
	for i := range stepCounts {
		stepCounts[i] = dec.u32()
		sumSteps += uint64(stepCounts[i])
	}
	if dec.err != nil {
		return nil, fmt.Errorf("store: reading accounting sections: %w", dec.err)
	}
	if sumSteps != totalSteps {
		return nil, fmt.Errorf("store: per-walker step counts sum to %d, header says %d (corrupt file?)", sumSteps, totalSteps)
	}

	// Decode straight into the trajectory's columnar layout: the file's
	// record order (start lists first, then step lists walker-major) IS the
	// arena order, so every neighbor entry appends to one preallocated arena
	// and the whole decode is a fixed number of allocations regardless of
	// trajectory length (pinned by TestLoadAllocsPerStep).
	S := int(totalSteps)
	data := core.TrajectoryData{
		Ext:         make([]int64, W+1),
		Prev:        make([]graph.Node, S),
		Node:        make([]graph.Node, S),
		Degree:      make([]int32, S),
		NbrOff:      make([]int64, S+1),
		StartNode:   make([]graph.Node, W),
		StartDegree: make([]int32, W),
		StartOff:    make([]int64, W+1),
		Arena:       make([]graph.Node, 0, totalNeighbors),
	}
	for w := 0; w < W; w++ {
		data.Ext[w+1] = data.Ext[w] + int64(stepCounts[w])
	}

	// neighborsLeft caps arena appends by the header's global total, so a
	// corrupt per-record length cannot overrun the preallocated arena.
	neighborsLeft := totalNeighbors
	readNeighbors := func(n uint32) error {
		if uint64(n) > neighborsLeft {
			return fmt.Errorf("store: neighbor list of %d entries exceeds the header's remaining total %d (corrupt file?)", n, neighborsLeft)
		}
		neighborsLeft -= uint64(n)
		for i := uint32(0); i < n; i++ {
			v, err := checkNode(dec.u32(), "neighbor")
			if err != nil {
				return err
			}
			data.Arena = append(data.Arena, v)
		}
		return nil
	}

	for w := 0; w < W; w++ {
		node, err := checkNode(dec.u32(), "start node")
		if err != nil {
			return nil, err
		}
		degree := dec.u32()
		nbrLen := dec.u32()
		if dec.err != nil {
			return nil, fmt.Errorf("store: reading start record %d: %w", w, dec.err)
		}
		data.StartNode[w] = node
		data.StartDegree[w] = int32(degree)
		data.StartOff[w] = int64(len(data.Arena))
		if err := readNeighbors(nbrLen); err != nil {
			return nil, err
		}
	}
	data.StartOff[W] = int64(len(data.Arena))

	for i := 0; i < S; i++ {
		prev, err := checkNode(dec.u32(), "step prev")
		if err != nil {
			return nil, err
		}
		node, err := checkNode(dec.u32(), "step node")
		if err != nil {
			return nil, err
		}
		degree := dec.u32()
		nbrLen := dec.u32()
		if dec.err != nil {
			return nil, fmt.Errorf("store: reading step %d: %w", i, dec.err)
		}
		data.Prev[i] = prev
		data.Node[i] = node
		data.Degree[i] = int32(degree)
		data.NbrOff[i] = int64(len(data.Arena))
		if err := readNeighbors(nbrLen); err != nil {
			return nil, err
		}
	}
	data.NbrOff[S] = int64(len(data.Arena))
	if neighborsLeft != 0 {
		return nil, fmt.Errorf("store: %d neighbor entries promised by the header were never consumed (corrupt file?)", neighborsLeft)
	}

	labelNodeIDs := make([]graph.Node, labelNodes)
	for i := range labelNodeIDs {
		u, err := checkNode(dec.u32(), "labeled node")
		if err != nil {
			return nil, err
		}
		if i > 0 && u <= labelNodeIDs[i-1] {
			return nil, fmt.Errorf("store: labeled node IDs not strictly increasing at index %d (corrupt file?)", i)
		}
		labelNodeIDs[i] = u
	}
	labelOff := make([]uint32, labelNodes+1)
	for i := range labelOff {
		labelOff[i] = dec.u32()
		if i > 0 && labelOff[i] < labelOff[i-1] {
			return nil, fmt.Errorf("store: label offsets decrease at index %d (corrupt file?)", i)
		}
	}
	if dec.err == nil && (labelOff[0] != 0 || uint64(labelOff[labelNodes]) != labelRefs) {
		return nil, fmt.Errorf("store: label offsets span [%d,%d], refs section has %d (corrupt file?)",
			labelOff[0], labelOff[labelNodes], labelRefs)
	}
	table := make([]graph.Label, labelTable)
	for i := range table {
		table[i] = graph.Label(dec.u32())
		if dec.err == nil && i > 0 && table[i] <= table[i-1] {
			return nil, fmt.Errorf("store: label table not strictly increasing at index %d (corrupt file?)", i)
		}
	}
	vals := make([]graph.Label, labelRefs)
	for i := range vals {
		ref := dec.u32()
		if dec.err != nil {
			break
		}
		if uint64(ref) >= labelTable {
			return nil, fmt.Errorf("store: label ref %d out of table range [0,%d)", ref, labelTable)
		}
		vals[i] = table[ref]
	}
	if dec.err != nil {
		return nil, fmt.Errorf("store: reading label sections: %w", dec.err)
	}
	if dec.off != len(dec.buf) {
		return nil, fmt.Errorf("store: %d unparsed payload bytes (corrupt file?)", len(dec.buf)-dec.off)
	}

	t := &core.Trajectory{
		Walkers:          W,
		APICalls:         int64(apiCalls),
		PerWalkerCalls:   perCalls,
		NumNodes:         int(numNodes),
		NumEdges:         int64(numEdges),
		ThinGap:          int(thinGap),
		BurnIn:           int(burnIn),
		BudgetDriven:     flags&flagBudgetDriven != 0,
		GraphVersion:     graphVersion,
		GraphFingerprint: graphFP,
	}
	if err := t.SetData(data); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	t.BindLabels(core.NewLabelSnapshot(int(numNodes), labelNodeIDs, labelOff, table, vals))
	return t, nil
}

// Save writes t to path atomically: the trajectory streams to a temporary
// file in the same directory, is fsynced, and replaces path by rename, so a
// crash mid-write never leaves a truncated trajectory behind, and a
// concurrent Load sees either the previous complete file or the new one.
func Save(path string, t *core.Trajectory) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("store: creating temp file: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := Write(tmp, t); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("store: syncing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: closing %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: renaming into place: %w", err)
	}
	tmp = nil
	return nil
}

// Load reads the trajectory at path in one slurp. The decoder cross-checks
// the header's section sizes against the actual byte count before parsing,
// so a truncated or size-inconsistent file fails fast.
func Load(path string) (*core.Trajectory, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	t, err := decode(raw)
	if err != nil {
		return nil, fmt.Errorf("store: loading %s: %w", path, err)
	}
	return t, nil
}

// encoder writes little-endian words through a buffered writer, capturing
// the first error so call sites stay linear.
type encoder struct {
	w   *bufio.Writer
	err error
	buf [8]byte
}

func (e *encoder) u32(v uint32) {
	if e.err != nil {
		return
	}
	binary.LittleEndian.PutUint32(e.buf[:4], v)
	_, e.err = e.w.Write(e.buf[:4])
}

func (e *encoder) u64(v uint64) {
	if e.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(e.buf[:8], v)
	_, e.err = e.w.Write(e.buf[:8])
}

// nodes writes a neighbor list as u32 words.
func (e *encoder) nodes(ns []graph.Node) {
	for _, v := range ns {
		e.u32(uint32(v))
	}
}

// cursor reads little-endian words straight out of an in-memory payload;
// the first out-of-bounds read sticks as an error. The checksum was already
// verified over the whole buffer, so reads are plain slice indexing.
type cursor struct {
	buf []byte
	off int
	err error
}

func (c *cursor) u32() uint32 {
	if c.err != nil {
		return 0
	}
	if c.off+4 > len(c.buf) {
		c.err = io.ErrUnexpectedEOF
		return 0
	}
	v := binary.LittleEndian.Uint32(c.buf[c.off:])
	c.off += 4
	return v
}

func (c *cursor) u64() uint64 {
	if c.err != nil {
		return 0
	}
	if c.off+8 > len(c.buf) {
		c.err = io.ErrUnexpectedEOF
		return 0
	}
	v := binary.LittleEndian.Uint64(c.buf[c.off:])
	c.off += 8
	return v
}
