// Stub of repro/internal/prof for analyzer testdata: same import path and
// the same names the analyzers key on, none of the behaviour.
package prof

type HotLine struct {
	Line       uint32
	Count, Err uint64
}

type Shard struct{}

func (s *Shard) RecordConflict(line uint32)                                 {}
func (s *Shard) RecordCapacity(line uint32)                                 {}
func (s *Shard) RecordFootprint(class, outcome uint8, read, write, occ int) {}

type Profile struct{}

func (p *Profile) Shard(id int) *Shard  { return nil }
func (p *Profile) TopK(k int) []HotLine { return nil }
