package par

import (
	"fmt"
	"sort"

	"icoearth/internal/grid"
)

// ShapeError reports a halo payload whose length does not match what the
// receiver's partition expects — a mismatched decomposition or field
// shape on the sending side.
type ShapeError struct {
	From int // sending rank
	Want int // expected float64 count
	Got  int // received float64 count
}

func (e *ShapeError) Error() string {
	return fmt.Sprintf("par: halo payload from rank %d has %d values, want %d (mismatched partition or field shape)",
		e.From, e.Got, e.Want)
}

// HaloExchanger performs the ghost-cell update for one rank of a grid
// decomposition: owned boundary values are packed and sent to each
// neighbouring rank, and incoming values are scattered into the local halo
// region. Fields use the local layout produced by grid.Partition: owned
// cells first (in Owner order), then halo cells (in HaloCells order), each
// cell carrying nlev contiguous levels.
type HaloExchanger struct {
	comm *Comm
	part *grid.Partition

	neighbors []int         // ranks we exchange with, ascending
	sendLocal map[int][]int // local indices (cell-granularity) to pack per rank
	recvLocal map[int][]int // local halo indices to fill per rank

	oneField [1][]float64 // scratch so Exchange reuses the packed path

	// bufs holds, per exchange form (tagHalo-tag), two pack buffers per
	// neighbour, used alternately as round counts the form's posts: a peer
	// may still be reading round k's buffer during post k+1, but it posted
	// its own round k+1 — collected here before post k+2 — after that read.
	bufs  [3][2][][]float64
	round [3]int
	op    HaloOp // the one Start/Finish pair in flight
}

// NewHaloExchanger precomputes pack/unpack index lists. It fails fast on
// an asymmetric partition: the exchange is collective over neighbour
// pairs, so a rank expecting halo values from a peer that has nothing to
// send it (or vice versa) would block forever in Recv with no
// diagnostic. Partitions from grid.Decompose/DecomposeAt are symmetric
// by construction; hand-built ones get the check.
func NewHaloExchanger(c *Comm, p *grid.Partition) (*HaloExchanger, error) {
	h := &HaloExchanger{
		comm:      c,
		part:      p,
		sendLocal: make(map[int][]int),
		recvLocal: make(map[int][]int),
	}
	seen := map[int]bool{}
	for r, cells := range p.Send {
		loc := make([]int, len(cells))
		for i, gc := range cells {
			loc[i] = p.LocalIndex[gc]
		}
		h.sendLocal[r] = loc
		seen[r] = true
	}
	for r, cells := range p.Halo {
		loc := make([]int, len(cells))
		for i, gc := range cells {
			loc[i] = p.LocalIndex[gc]
		}
		h.recvLocal[r] = loc
		seen[r] = true
	}
	for r := range seen {
		h.neighbors = append(h.neighbors, r)
	}
	sort.Ints(h.neighbors)
	for f := range h.bufs {
		h.bufs[f][0] = make([][]float64, len(h.neighbors))
		h.bufs[f][1] = make([][]float64, len(h.neighbors))
	}
	for _, r := range h.neighbors {
		ns, nr := len(h.sendLocal[r]), len(h.recvLocal[r])
		if ns == 0 || nr == 0 {
			return nil, fmt.Errorf("par: asymmetric partition between ranks %d and %d: rank %d sends %d cells and expects %d back; a halo exchange needs traffic in both directions",
				p.Rank, r, p.Rank, ns, nr)
		}
	}
	return h, nil
}

// Neighbors returns the ranks this rank exchanges with.
func (h *HaloExchanger) Neighbors() []int { return h.neighbors }

// post packs and sends one buffer per neighbour (all fields, field-major)
// and returns the sent byte count. The packed buffer goes to Comm.post as
// it is — no second copy — and is packed again two rounds on (see bufs);
// under a fault hook, which may park a message past that, it is given up
// and every round packs a fresh one. Channels/sockets are buffered, so
// posting every send before any receive cannot deadlock.
func (h *HaloExchanger) post(tag int, fields [][]float64, nlev int) int64 {
	var sent int64
	form := tagHalo - tag
	set := h.bufs[form][h.round[form]&1]
	h.round[form]++
	for ni, r := range h.neighbors {
		loc := h.sendLocal[r]
		n := len(loc) * nlev * len(fields)
		if cap(set[ni]) < n || h.comm.hook != nil {
			set[ni] = make([]float64, n)
		}
		buf := set[ni][:n]
		o := 0
		for _, f := range fields {
			for _, li := range loc {
				copy(buf[o:o+nlev], f[li*nlev:(li+1)*nlev])
				o += nlev
			}
		}
		sent += int64(8 * len(buf))
		h.comm.post(r, tag, buf)
	}
	return sent
}

// collect receives one buffer per neighbour, validates its shape against
// the partition, and scatters it into the fields' halo regions. Returns
// the received byte count.
func (h *HaloExchanger) collect(tag int, fields [][]float64, nlev int) (int64, error) {
	var recvd int64
	for _, r := range h.neighbors {
		loc := h.recvLocal[r]
		buf := h.comm.Recv(r, tag)
		if len(buf) != len(loc)*nlev*len(fields) {
			return recvd, &ShapeError{From: r, Want: len(loc) * nlev * len(fields), Got: len(buf)}
		}
		recvd += int64(8 * len(buf))
		o := 0
		for _, f := range fields {
			for _, li := range loc {
				copy(f[li*nlev:(li+1)*nlev], buf[o:o+nlev])
				o += nlev
			}
		}
	}
	return recvd, nil
}

// exchange is the blocking post+collect pair behind Exchange and
// ExchangeMany. The trace span's byte argument counts both directions,
// matching the per-rank Stats (BytesSent + BytesRecvd) for the exchange.
func (h *HaloExchanger) exchange(span string, tag int, fields [][]float64, nlev int) error {
	t0 := h.comm.track.Start()
	sent := h.post(tag, fields, nlev)
	recvd, err := h.collect(tag, fields, nlev)
	h.comm.track.EndArg(span, t0, "bytes", sent+recvd)
	return err
}

// Exchange updates the halo region of field (layout: local cell index ×
// nlev levels, level-fastest). All ranks of the decomposition must call
// Exchange collectively.
func (h *HaloExchanger) Exchange(field []float64, nlev int) error {
	h.oneField[0] = field
	err := h.exchange("halo:exchange", tagHalo, h.oneField[:], nlev)
	h.oneField[0] = nil
	return err
}

// ExchangeMany updates several same-shaped fields in one message per
// neighbour (ICON aggregates variables per halo update to amortise α).
// The packed layout is field-major, so the result is bit-identical to
// calling Exchange once per field.
func (h *HaloExchanger) ExchangeMany(fields [][]float64, nlev int) error {
	return h.exchange("halo:exchange-many", tagHaloMany, fields, nlev)
}

// HaloOp is an in-flight overlapped halo exchange: Start has posted the
// boundary sends, and the owner may compute on interior cells while the
// messages travel; Finish receives and scatters the ghost values.
type HaloOp struct {
	h      *HaloExchanger
	fields [][]float64
	nlev   int
	t0     int64
	sent   int64
}

// Start posts this rank's boundary sends for the given same-shaped
// fields and returns the in-flight operation — the exchanger's one HaloOp,
// so it must be Finished before the next Start. Between Start and Finish
// the caller may update any owned cell — the outgoing buffers are packed
// copies — but must not read halo cells, which still hold stale values
// until Finish scatters the incoming messages.
func (h *HaloExchanger) Start(fields [][]float64, nlev int) *HaloOp {
	h.op = HaloOp{h: h, fields: fields, nlev: nlev, t0: h.comm.track.Start()}
	h.op.sent = h.post(tagHaloAsync, fields, nlev)
	return &h.op
}

// Finish receives the neighbours' boundary values and scatters them into
// the ghost region, completing the exchange begun by Start.
func (op *HaloOp) Finish() error {
	recvd, err := op.h.collect(tagHaloAsync, op.fields, op.nlev)
	op.h.comm.track.EndArg("halo:exchange-async", op.t0, "bytes", op.sent+recvd)
	return err
}
