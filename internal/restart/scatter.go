package restart

import (
	"fmt"
	"path/filepath"
	"sort"

	"icoearth/internal/par"
)

// Distributed restart reading (§6.4: "Reading, in turn, can be done with a
// different subset of ranks, where each rank reads parts of the files and
// distributes the data to the corresponding ranks"): the first nReaders
// ranks each read a share of the restart files (staggered) and fan the
// fields out to every rank; all ranks return the complete snapshot.
func ScatterRead(comm *par.Comm, dir string, nReaders int) (*Snapshot, error) {
	if nReaders < 1 {
		nReaders = 1
	}
	if nReaders > comm.Size() {
		nReaders = comm.Size()
	}
	const tagMeta, tagName, tagData = 7001, 7002, 7003

	mine := NewSnapshot()
	if comm.Rank < nReaders {
		share, err := readShare(dir, comm.Rank, nReaders)
		if err != nil {
			return nil, err
		}
		mine = share
	}
	myNames := mine.names()

	// Publish per-rank field counts (one-hot sum).
	oneHot := make([]float64, comm.Size())
	oneHot[comm.Rank] = float64(len(myNames))
	counts := comm.AllreduceVec(par.OpSum, oneHot)

	out := NewSnapshot()
	for name, data := range mine.Fields {
		out.Fields[name] = data
	}
	// Counted fan-out: reader r sends its j-th field to every other rank;
	// receivers know exactly how many fields to expect from each reader.
	for r := 0; r < nReaders; r++ {
		n := int(counts[r])
		if comm.Rank == r {
			for _, name := range myNames {
				data := mine.Fields[name]
				nameBuf := make([]float64, len(name))
				for i := range name {
					nameBuf[i] = float64(name[i])
				}
				for dst := 0; dst < comm.Size(); dst++ {
					if dst == comm.Rank {
						continue
					}
					comm.Send(dst, tagMeta, []float64{float64(len(name)), float64(len(data))})
					comm.Send(dst, tagName, nameBuf)
					comm.Send(dst, tagData, data)
				}
			}
			continue
		}
		for j := 0; j < n; j++ {
			meta := comm.Recv(r, tagMeta)
			nameBuf := comm.Recv(r, tagName)
			data := comm.Recv(r, tagData)
			if int(meta[0]) != len(nameBuf) || int(meta[1]) != len(data) {
				return nil, fmt.Errorf("restart: scatter metadata mismatch from rank %d", r)
			}
			nb := make([]byte, len(nameBuf))
			for i := range nameBuf {
				nb[i] = byte(nameBuf[i])
			}
			out.Fields[string(nb)] = data
		}
	}
	comm.Barrier()
	var total int
	for r := 0; r < nReaders; r++ {
		total += int(counts[r])
	}
	if len(out.Fields) != total {
		return nil, fmt.Errorf("restart: rank %d assembled %d/%d fields", comm.Rank, len(out.Fields), total)
	}
	return out, nil
}

// readShare reads every nReaders-th restart file starting at offset rank.
func readShare(dir string, rank, nReaders int) (*Snapshot, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "restart_*.bin"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("restart: no restart files in %s", dir)
	}
	sort.Strings(paths)
	s := NewSnapshot()
	for i := rank; i < len(paths); i += nReaders {
		_, fields, err := readShard(paths[i])
		if err != nil {
			return nil, err
		}
		for _, f := range fields {
			s.Fields[f.name] = f.data
		}
	}
	return s, nil
}
