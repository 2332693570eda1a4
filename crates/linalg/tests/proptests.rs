//! Property-based tests for the exact linear-algebra substrate.

use anonet_linalg::{gauss, vector, KernelTracker, LinalgError, Matrix, Ratio, SparseIntMatrix};
use proptest::prelude::*;

fn small_ratio() -> impl Strategy<Value = Ratio> {
    (-20i128..=20, 1i128..=9).prop_map(|(n, d)| Ratio::new(n, d).unwrap())
}

fn small_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..=5, 1usize..=6).prop_flat_map(|(r, c)| {
        proptest::collection::vec(proptest::collection::vec(small_ratio(), c), r)
            .prop_map(|rows| Matrix::from_rows(rows).unwrap())
    })
}

proptest! {
    #[test]
    fn ratio_field_axioms(a in small_ratio(), b in small_ratio(), c in small_ratio()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!(a + Ratio::ZERO, a);
        prop_assert_eq!(a * Ratio::ONE, a);
        prop_assert_eq!(a - a, Ratio::ZERO);
        if !b.is_zero() {
            prop_assert_eq!((a / b) * b, a);
        }
    }

    #[test]
    fn ratio_ordering_total(a in small_ratio(), b in small_ratio()) {
        // Exactly one of <, ==, > holds, and ordering agrees with subtraction sign.
        let diff = a - b;
        prop_assert_eq!(a.cmp(&b), diff.signum().cmp(&0));
    }

    #[test]
    fn ratio_parse_roundtrip(a in small_ratio()) {
        let s = a.to_string();
        prop_assert_eq!(s.parse::<Ratio>().unwrap(), a);
    }

    #[test]
    fn kernel_vectors_annihilate(m in small_matrix()) {
        let basis = gauss::kernel_basis(&m).unwrap();
        for k in &basis {
            let out = m.mul_vec(k).unwrap();
            prop_assert!(out.iter().all(Ratio::is_zero));
        }
        // Rank-nullity.
        prop_assert_eq!(gauss::rank(&m).unwrap() + basis.len(), m.cols());
    }

    #[test]
    fn solve_produces_solutions(m in small_matrix(), xs in proptest::collection::vec(-10i64..=10, 0..6)) {
        // Construct a guaranteed-consistent rhs b = m * x, then check solve.
        let mut x = vec![Ratio::ZERO; m.cols()];
        for (i, v) in xs.iter().take(m.cols()).enumerate() {
            x[i] = Ratio::from(*v);
        }
        let b = m.mul_vec(&x).unwrap();
        let sol = gauss::solve(&m, &b).unwrap();
        prop_assert_eq!(m.mul_vec(&sol).unwrap(), b);
    }

    #[test]
    fn rref_is_idempotent_and_rank_bounded(m in small_matrix()) {
        let e = gauss::rref(&m).unwrap();
        prop_assert!(e.rank() <= m.rows().min(m.cols()));
        let e2 = gauss::rref(&e.rref).unwrap();
        prop_assert_eq!(e2.rref, e.rref);
    }

    #[test]
    fn transpose_preserves_rank(m in small_matrix()) {
        prop_assert_eq!(gauss::rank(&m).unwrap(), gauss::rank(&m.transpose()).unwrap());
    }

    #[test]
    fn sparse_dense_mul_agree(
        rows in proptest::collection::vec(proptest::collection::vec(-3i64..=3, 4), 1..5),
        v in proptest::collection::vec(-5i64..=5, 4),
    ) {
        let mut sp = SparseIntMatrix::new(4);
        for row in &rows {
            let entries: Vec<(u32, i64)> = row
                .iter()
                .enumerate()
                .map(|(c, &val)| (c as u32, val))
                .collect();
            sp.push_row(entries).unwrap();
        }
        let sparse_out = sp.mul_vec(&v).unwrap();
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let dense = Matrix::from_i64_rows(&refs).unwrap();
        let vr: Vec<Ratio> = v.iter().map(|&x| Ratio::from(x)).collect();
        let dense_out = dense.mul_vec(&vr).unwrap();
        for (s, d) in sparse_out.iter().zip(&dense_out) {
            prop_assert_eq!(Ratio::from_integer(*s), *d);
        }
    }

    #[test]
    fn vector_sums_decompose(v in proptest::collection::vec(-50i64..=50, 0..20)) {
        let total = vector::sum(&v).unwrap();
        let pos = vector::sum_positive(&v).unwrap();
        let neg = vector::sum_negative(&v).unwrap();
        prop_assert_eq!(total, pos - neg);
        prop_assert!(pos >= 0 && neg >= 0);
        prop_assert_eq!(vector::is_nonnegative(&v), neg == 0);
    }

    #[test]
    fn enumerate_finds_planted_solutions(
        x in proptest::collection::vec(0i64..=3, 1..5),
        row_masks in proptest::collection::vec(proptest::collection::vec(proptest::bool::ANY, 4), 1..4),
    ) {
        use anonet_linalg::enumerate::enumerate_nonnegative_solutions;
        // Build a 0/1 system with planted solution x, then check that the
        // enumeration (a) contains x and (b) only returns true solutions.
        let cols = x.len();
        let mut m = SparseIntMatrix::new(cols);
        let mut rhs = Vec::new();
        for mask in &row_masks {
            let entries: Vec<(u32, i64)> = mask
                .iter()
                .take(cols)
                .enumerate()
                .filter(|(_, &on)| on)
                .map(|(c, _)| (c as u32, 1i64))
                .collect();
            let b: i64 = entries.iter().map(|&(c, _)| x[c as usize]).sum();
            m.push_row(entries).unwrap();
            rhs.push(b);
        }
        let cap = 3;
        if let Ok(sols) = enumerate_nonnegative_solutions(&m, &rhs, cap, 100_000) {
            prop_assert!(sols.contains(&x), "planted {x:?} among {}", sols.len());
            for s in &sols {
                let check: Vec<i128> = m.mul_vec(s).unwrap();
                let expect: Vec<i128> = rhs.iter().map(|&v| v as i128).collect();
                prop_assert_eq!(check, expect);
                prop_assert!(s.iter().all(|&v| (0..=cap).contains(&v)));
            }
        }
    }

    #[test]
    fn add_scaled_linear(v in proptest::collection::vec(-20i64..=20, 1..10), t in -5i64..=5) {
        let w = vector::add_scaled(&v, t, &v).unwrap();
        let expect: Vec<i64> = v.iter().map(|&x| x * (1 + t)).collect();
        prop_assert_eq!(w, expect);
    }

    #[test]
    fn tracker_matches_batch_at_every_prefix(m in small_matrix()) {
        // The incremental tracker must agree with batch rref on rank,
        // nullity, pivots, echelon and kernel after EVERY append — not
        // just at the end (RREF is canonical for the row space).
        let mut t = KernelTracker::new(m.cols());
        for r in 0..m.rows() {
            t.append_row(m.row(r)).unwrap();
            let prefix =
                Matrix::from_rows((0..=r).map(|i| m.row(i).to_vec()).collect()).unwrap();
            let e = gauss::rref(&prefix).unwrap();
            prop_assert_eq!(t.rank(), e.rank());
            prop_assert_eq!(t.nullity(), m.cols() - e.rank());
            prop_assert_eq!(t.pivots(), e.pivots.as_slice());
            prop_assert_eq!(&t.echelon().unwrap().rref, &e.rref);
            prop_assert_eq!(
                t.kernel_basis().unwrap(),
                gauss::kernel_basis(&prefix).unwrap()
            );
        }
    }

    #[test]
    fn tracker_kernel_vectors_lie_in_full_kernel(m in small_matrix()) {
        let mut t = KernelTracker::new(m.cols());
        t.append_matrix(&m).unwrap();
        for k in t.kernel_basis().unwrap() {
            let out = m.mul_vec(&k).unwrap();
            prop_assert!(out.iter().all(Ratio::is_zero));
        }
        prop_assert_eq!(t.rank() + t.nullity(), m.cols());
    }

    #[test]
    fn tracker_extend_columns_matches_kronecker(m in small_matrix(), f in 1usize..=3) {
        // extend_columns(f) must equal batch elimination of the widened
        // matrix M ⊗ 1_fᵀ (every entry duplicated f times) — the
        // column-growth step the observation system performs per round.
        let mut t = KernelTracker::new(m.cols());
        t.append_matrix(&m).unwrap();
        t.extend_columns(f).unwrap();
        let wide_rows: Vec<Vec<Ratio>> = (0..m.rows())
            .map(|r| {
                m.row(r)
                    .iter()
                    .flat_map(|&x| std::iter::repeat_n(x, f))
                    .collect()
            })
            .collect();
        let wide = Matrix::from_rows(wide_rows).unwrap();
        let e = gauss::rref(&wide).unwrap();
        prop_assert_eq!(t.rank(), e.rank());
        prop_assert_eq!(t.pivots(), e.pivots.as_slice());
        prop_assert_eq!(t.kernel_basis().unwrap(), gauss::kernel_basis(&wide).unwrap());
    }

    #[test]
    fn tracker_overflow_rollback_matches_valid_only_sequence(
        ops in proptest::collection::vec(
            (proptest::bool::ANY, proptest::collection::vec(-3i64..=3, 3)),
            1..12,
        ),
    ) {
        // Interleave appends that are guaranteed to overflow BOTH
        // arithmetic paths (fraction-free integer and exact rational)
        // with ordinary valid appends, and require that the final
        // tracker state is exactly the batch RREF of the valid-only
        // subsequence: a failed append must be a perfect no-op.
        //
        // Arming row: a primitive stored pivot of ~2^100 in column 0.
        // Any later row with a nonzero column-0 entry and a ~2^100
        // entry elsewhere needs ~2^200 cross products (integer path)
        // or a ~2^200 numerator (rational path) — both exceed i128.
        // Valid rows keep columns 0 and 1 at zero: they never reduce
        // against the huge pivot, and RREF maintenance never rewrites
        // the arming row (its columns >= 2 are already zero), so its
        // pivot stays huge for the whole interleaving.
        const HUGE: i128 = 1 << 100;
        let mut t = KernelTracker::new(5);
        t.append_row_i128(&[HUGE, 1, 0, 0, 0]).unwrap();
        let mut valid: Vec<Vec<Ratio>> = vec![
            vec![Ratio::from_integer(HUGE), Ratio::ONE, Ratio::ZERO, Ratio::ZERO, Ratio::ZERO],
        ];
        // The rollback path is exercised at least once per case.
        let before = t.clone();
        prop_assert_eq!(
            t.append_row_i128(&[1, HUGE, 1, 1, 1]),
            Err(LinalgError::Overflow)
        );
        prop_assert_eq!(&t, &before, "failed append must be a no-op");
        for (overflowing, small) in &ops {
            if *overflowing {
                let row = [1, HUGE, small[0] as i128, small[1] as i128, small[2] as i128];
                let before = t.clone();
                prop_assert_eq!(t.append_row_i128(&row), Err(LinalgError::Overflow));
                prop_assert_eq!(&t, &before, "failed append must be a no-op");
            } else {
                let row: Vec<i128> = [0i128, 0]
                    .into_iter()
                    .chain(small.iter().map(|&x| x as i128))
                    .collect();
                t.append_row_i128(&row).unwrap();
                valid.push(row.iter().map(|&x| Ratio::from_integer(x)).collect());
            }
        }
        let reference = Matrix::from_rows(valid).unwrap();
        let e = gauss::rref(&reference).unwrap();
        prop_assert_eq!(t.rank(), e.rank());
        prop_assert_eq!(t.nullity(), 5 - e.rank());
        prop_assert_eq!(t.pivots(), e.pivots.as_slice());
        prop_assert_eq!(&t.echelon().unwrap().rref, &e.rref);
        prop_assert_eq!(
            t.kernel_basis().unwrap(),
            gauss::kernel_basis(&reference).unwrap()
        );
    }
}
