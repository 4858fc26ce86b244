// Package repro is a full reproduction of "A Network Co-processor-Based
// Approach to Scalable Media Streaming in Servers" (Krishnamurthy, Schwan,
// West, Rosu — ICPP 2000): the DWCS media scheduler embedded on i960 RD I2O
// network interfaces inside the DVCM runtime-extension architecture, with
// the obsolete hardware substrate rebuilt as a deterministic discrete-event
// simulation.
//
// The library lives in internal/ packages (see DESIGN.md for the system
// inventory); this root package holds only the whole-system integration
// test. cmd/reprogen regenerates every table and figure of the paper's
// evaluation as paper-vs-measured comparison tables, and go run ./bench
// times it.
package repro
