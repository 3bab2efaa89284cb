//! Run every paper experiment in turn (Table 5, Figure 5 / Table 6,
//! Figure 6 / Tables 7-9, Figures 7-13, Section 6 and the §7 ablation) by
//! calling each figure binary's own `main`, so the output is exactly theirs,
//! one after the other in the paper's order. Control the cost with the
//! environment variables `MASORT_SORTS_PER_POINT` (default 5) and
//! `MASORT_RELATION_MB` (default 20).

#[path = "exp_ablation.rs"]
mod ablation;
#[path = "exp_fig10_11.rs"]
mod fig10_11;
#[path = "exp_fig12_13.rs"]
mod fig12_13;
#[path = "exp_fig5_table6.rs"]
mod fig5_table6;
#[path = "exp_fig6_baseline.rs"]
mod fig6_baseline;
#[path = "exp_fig7_8_9.rs"]
mod fig7_8_9;
#[path = "exp_smj.rs"]
mod smj;
#[path = "exp_table5.rs"]
mod table5;

fn main() {
    table5::main();
    fig5_table6::main();
    fig6_baseline::main();
    fig7_8_9::main();
    fig10_11::main();
    fig12_13::main();
    smj::main();
    ablation::main();
}
