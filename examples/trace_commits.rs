//! Observe the committed instruction stream through a custom
//! [`DetectionSink`] — the same interface the detection hardware uses —
//! and print a short pipeline-level trace plus the program's disassembly.
//!
//! ```sh
//! cargo run --release --example trace_commits
//! ```

use paradet::isa::{ArchState, ProgramBuilder, Reg};
use paradet::mem::{Freq, MemConfig, MemHier, Time};
use paradet::ooo::{CommitEvent, CommitGate, DetectionSink, OooConfig, OooCore};

/// Prints each committed micro-op with its commit time and memory effect.
struct TracingSink {
    shown: usize,
    limit: usize,
}

impl DetectionSink for TracingSink {
    fn on_load_executed(
        &mut self,
        rob_slot: usize,
        addr: u64,
        value: u64,
        _width: paradet::isa::MemWidth,
        at: Time,
    ) {
        if self.shown < self.limit {
            println!("  {at:>12}  LFU capture rob[{rob_slot:2}] addr={addr:#x} value={value:#x}");
        }
    }

    fn on_commit(
        &mut self,
        ev: &CommitEvent,
        at: Time,
        _committed: &ArchState,
        _hier: &mut MemHier,
    ) -> CommitGate {
        if self.shown < self.limit {
            let mem = match ev.mem {
                Some(m) if m.is_store => format!("  store [{:#x}] <- {:#x}", m.addr, m.value),
                Some(m) => format!("  load  [{:#x}] -> {:#x}", m.addr, m.value),
                None => String::new(),
            };
            println!(
                "  {at:>12}  commit #{:<4} pc={:#x} uop{}{} {}{mem}",
                ev.seq,
                ev.pc,
                ev.uop_index,
                if ev.last { "*" } else { " " },
                ev.insn,
            );
            self.shown += 1;
            if self.shown == self.limit {
                println!("  ... (truncated)");
            }
        }
        CommitGate::Accept
    }
}

fn main() {
    let mut b = ProgramBuilder::new();
    let buf = b.alloc_u64s(&[10, 20, 30, 40]);
    b.li(Reg::X1, buf as i64);
    b.ldp(Reg::X2, Reg::X3, Reg::X1, 0);
    b.op(paradet::isa::AluOp::Add, Reg::X4, Reg::X2, Reg::X3);
    b.stp(Reg::X4, Reg::X2, Reg::X1, 16);
    b.rdcycle(Reg::X5);
    b.halt();
    let program = b.build();

    println!("program listing:");
    print!("{}", program.listing());

    println!("\ncommit trace (3.2 GHz main core):");
    let cfg = OooConfig::default();
    let mut hier = MemHier::new(&MemConfig::paper_default(cfg.clock, Freq::from_mhz(1000)));
    hier.data.load_image(&program);
    let mut core = OooCore::new(cfg, &program);
    let mut sink = TracingSink { shown: 0, limit: 40 };
    core.run(&mut hier, &mut sink, 1000);
    println!(
        "\nretired {} instructions in {} cycles (IPC {:.2})",
        core.stats.committed_instrs,
        core.stats.last_commit_cycle,
        core.stats.ipc()
    );
}
