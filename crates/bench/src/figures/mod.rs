//! One module per figure/table of the paper's evaluation, each exposing the
//! computation behind the corresponding harness binary.

pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig6;
pub mod fig7;
