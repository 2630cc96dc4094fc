package mem

// Batch is a reusable, caller-owned slice of by-value Access records — the
// unit of work of the batched hot path (DESIGN.md "Hot path & batching").
//
// Ownership rules:
//
//   - The caller owns the backing array. Producers (workload.Program.
//     FillBatch, vm.Engine.RunFuncBatch) append; consumers (reuse.
//     ExactMonitor.ObserveHist, vm.Engine.RunVDP, ...) read.
//   - Records are by value. A consumer that needs an access beyond the
//     call must copy the record, never retain a pointer into the batch:
//     the caller will Reset and refill the same array on the next window.
//   - Reset truncates without freeing, so a batch sized once (capacity =
//     the chunk's instruction count bounds its access count) never
//     allocates again in steady state.
type Batch []Access

// Reset truncates the batch, retaining the backing array.
func (b *Batch) Reset() { *b = (*b)[:0] }

// Add appends one access record.
func (b *Batch) Add(a Access) { *b = append(*b, a) }

// Len returns the number of buffered records.
func (b Batch) Len() int { return len(b) }
