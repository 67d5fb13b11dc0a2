//! A reference evaluator for generated Kern programs.
//!
//! It interprets a [`KernProgram`] directly, with the semantics
//! `ch_fuzz::gen` documents and renders, so that every ISA's exit value
//! can be checked against an answer that shares no code with the
//! compiler's IR, lowering or backends:
//!
//! * 64-bit wrapping arithmetic;
//! * RV64 division and remainder: `x / 0 = -1`, `x % 0 = x`, and
//!   `MIN / -1` wraps;
//! * shift amounts masked to 6 bits; `>>` is arithmetic;
//! * array indices masked to `ARRAY_LEN - 1`;
//! * counted `for` loops, where `break` leaves the innermost loop and a
//!   `break` outside any loop does nothing;
//! * non-recursive helpers with locals of their own;
//! * the checksum epilogue of [`ch_fuzz::render`].

use ch_fuzz::gen::{BinOp, Expr, Stmt, ARRAY_LEN};
use ch_fuzz::KernProgram;

enum Flow {
    Next,
    Break,
}

struct Machine<'a> {
    program: &'a KernProgram,
    g0: i64,
    buf: [i64; ARRAY_LEN as usize],
}

/// One function activation: its locals and parameters.
struct Frame<'a> {
    vars: &'a mut [i64],
    params: &'a [i64],
}

fn binop(op: BinOp, a: i64, b: i64) -> i64 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div if b == 0 => -1,
        BinOp::Div => a.wrapping_div(b),
        BinOp::Rem if b == 0 => a,
        BinOp::Rem => a.wrapping_rem(b),
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl((b & 63) as u32),
        BinOp::Shr => a.wrapping_shr((b & 63) as u32),
    }
}

fn index(i: i64) -> usize {
    (i & (ARRAY_LEN as i64 - 1)) as usize
}

impl Machine<'_> {
    fn expr(&self, e: &Expr, f: &Frame, loop_var: Option<i64>) -> i64 {
        match e {
            Expr::Const(v) => *v,
            Expr::Var(i) => f.vars[*i],
            Expr::Param(i) => f.params[*i],
            Expr::Global => self.g0,
            Expr::Arr(i) => self.buf[index(self.expr(i, f, loop_var))],
            Expr::LoopVar => loop_var.unwrap_or(0),
            Expr::Bin(op, a, b) => binop(*op, self.expr(a, f, loop_var), self.expr(b, f, loop_var)),
        }
    }

    fn block(&mut self, stmts: &[Stmt], f: &mut Frame, loop_var: Option<i64>) -> Flow {
        for s in stmts {
            match s {
                Stmt::Assign(v, e) => f.vars[*v] = self.expr(e, f, loop_var),
                Stmt::Compound(v, op, e) => {
                    f.vars[*v] = binop(*op, f.vars[*v], self.expr(e, f, loop_var));
                }
                Stmt::ArrStore(i, e) => {
                    let at = index(self.expr(i, f, loop_var));
                    self.buf[at] = self.expr(e, f, loop_var);
                }
                Stmt::GlobalSet(e) => self.g0 = self.expr(e, f, loop_var),
                Stmt::If(cond, then_, else_) => {
                    let arm = if self.expr(cond, f, loop_var) != 0 {
                        then_
                    } else {
                        else_
                    };
                    if let Flow::Break = self.block(arm, f, loop_var) {
                        return Flow::Break;
                    }
                }
                Stmt::For(count, body) => {
                    for i in 0..i64::from(*count) {
                        if let Flow::Break = self.block(body, f, Some(i)) {
                            break;
                        }
                    }
                }
                Stmt::Call(v, k, args) => {
                    let args: Vec<i64> = args.iter().map(|a| self.expr(a, f, loop_var)).collect();
                    f.vars[*v] = self.call(*k, &args);
                }
                Stmt::Break if loop_var.is_some() => return Flow::Break,
                Stmt::Break => {}
            }
        }
        Flow::Next
    }

    fn call(&mut self, k: usize, args: &[i64]) -> i64 {
        let program = self.program;
        let helper = &program.helpers[k];
        let mut vars: Vec<i64> = (1..=program.nvars as i64).collect();
        let mut frame = Frame {
            vars: &mut vars,
            params: &args[..helper.params],
        };
        self.block(&helper.body, &mut frame, None);
        self.expr(&helper.ret, &frame, None)
    }
}

/// The exit value `main` returns.
pub fn eval(program: &KernProgram) -> u64 {
    let mut m = Machine {
        program,
        g0: 0,
        buf: [0; ARRAY_LEN as usize],
    };
    let mut vars: Vec<i64> = (1..=program.nvars as i64).map(|v| v * 3).collect();
    let mut frame = Frame {
        vars: &mut vars,
        params: &[],
    };
    m.block(&program.main, &mut frame, None);
    let mix = |chk: i64, x: i64| chk.wrapping_mul(31).wrapping_add(x) ^ (chk >> 7);
    let mut chk = vars.iter().fold(0i64, |chk, &v| mix(chk, v));
    chk = chk.wrapping_mul(31).wrapping_add(m.g0);
    chk = m.buf.iter().fold(chk, |chk, &b| mix(chk, b));
    (chk & 0xffff_ffff) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ch_fuzz::gen::Helper;

    fn c(v: i64) -> Expr {
        Expr::Const(v)
    }

    fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Bin(op, Box::new(a), Box::new(b))
    }

    #[test]
    fn division_and_shift_edge_cases_follow_rv64() {
        assert_eq!(binop(BinOp::Div, 100, 0), -1);
        assert_eq!(binop(BinOp::Rem, 100, 0), 100);
        assert_eq!(binop(BinOp::Div, i64::MIN, -1), i64::MIN);
        assert_eq!(binop(BinOp::Rem, i64::MIN, -1), 0);
        assert_eq!(binop(BinOp::Shl, 1, 65), 2);
        assert_eq!(binop(BinOp::Shr, -1, 63), -1);
    }

    #[test]
    fn loops_break_and_helpers_match_the_compiled_program() {
        // v0 = h0(i) inside a loop that breaks on its third iteration.
        let program = KernProgram {
            helpers: vec![Helper {
                params: 1,
                body: vec![Stmt::Compound(0, BinOp::Add, Expr::Param(0))],
                ret: bin(BinOp::Mul, Expr::Var(0), c(7)),
            }],
            main: vec![Stmt::For(
                8,
                vec![
                    Stmt::Call(0, 0, vec![Expr::LoopVar]),
                    Stmt::ArrStore(c(-1), Expr::Var(0)),
                    Stmt::If(
                        bin(BinOp::Sub, Expr::LoopVar, c(2)),
                        vec![],
                        vec![Stmt::Break],
                    ),
                    Stmt::GlobalSet(bin(BinOp::Add, Expr::Global, Expr::LoopVar)),
                ],
            )],
            nvars: 2,
        };
        let src = ch_fuzz::render(&program);
        let out = ch_fuzz::run_differential("eval", &src, 1_000_000)
            .expect("no divergence")
            .expect("no skip");
        assert_eq!(eval(&program), out.exit_value);
    }

    #[test]
    fn generated_programs_agree_with_the_interpreters() {
        let mut rng = proptest::TestRng::from_seed(7);
        for i in 0..40 {
            let program = ch_fuzz::gen_program(&mut rng);
            let src = ch_fuzz::render(&program);
            if let Ok(out) = ch_fuzz::run_differential("eval", &src, ch_fuzz::DEFAULT_LIMIT)
                .expect("no divergence")
            {
                assert_eq!(eval(&program), out.exit_value, "case {i}:\n{src}");
            }
        }
    }
}
