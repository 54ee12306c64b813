// Package pool is what remains of the worker-pool runtime the
// consistency checker's pairwise scans used to run on. The scans are
// serial now, so the package holds no workers: Pool is an empty
// placeholder, kept only so that callers of the ignored
// consistency.Checker.UsePool still compile. Nothing here spawns a
// goroutine or holds state. Delete the package once no caller names it.
package pool

// Pool is an empty placeholder for the deleted worker pool.
//
// Deprecated: ignored; the consistency scans are serial.
type Pool struct{}

// Default returns a placeholder Pool.
//
// Deprecated: ignored, like Pool.
func Default() *Pool { return new(Pool) }
