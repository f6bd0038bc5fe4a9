//! Which pool parameter sets the seed program solves.
//!
//! On the seed revision roughly half of the 300–800-unit pools fail the
//! MTTF step (`absorbing::mttf`, a dense LU) with `linear system is
//! singular`, in a pattern that jumps from one unit count to the next.
//! `large_pool` must time only ops that succeed, yet its op list must not
//! depend on the program under test: a later fix of the MTTF step must
//! leave the workload unchanged. So the filter is this frozen table,
//! computed once from the seed program, rather than a live solve.
//!
//! Row `i` covers MTBF `9000 + 100·i` h; bit `u − 300` of a row (hex,
//! most significant bit first) is set when the seed program's MTTF step
//! succeeds for `u` units. The outcome was the same for `min_quantity`
//! 1 and 90 % of units on every grid point. `perfbench
//! --print-pool-table` recomputes the table with the current program;
//! the unfiltered failure share is reported by the traced run.

use crate::gen::{PoolParams, POOL_MTBF, POOL_UNITS};

const ROWS: [&str; POOL_MTBF.2] = [
    "4fe5977abdfffff50b98feaa762b99136a47e273fcfe7e3b3e0dcfcfe1b1ddeef03f2fbf6f83d3efe1e7f4febc5f0fbb9fcbe1f4fa793ede0f2bb593cde1e8",
    "d4bde1f52debd7bd6b5a95cb7ad7aa5ad5ad70d4253bdea57f5ee18b5ee3a958d72b4ed10dcef39deee7a1cffbb0ca737dc273f6ed73dff7fed6ef79ccf7f8",
    "ef3bf696ff7fffaafd8de3f8e8eebedffd3f0d35147fc5f85b6cb0fe5e4b587b8b35ff4f41fade09a27e670cf07e9fe3bcffe9f8fe1df5fd0fa77c5f6be8a8",
    "57df0efff9f5dffaabffd55fde83ffbd57772af8f95d47d2ac7bd35d5cbaabedd4dd66eef73367b9bfb1ddddbee8ec7775633bbb3bdfdfeeccc7762673abb0",
    "fa569b774c93ab6ffab7691bfd4d5e5edff3c5d3f768d1e67d1a37d5978e8f1e19f1a7c40e3cf9f7c7ee3431e1c78e1c38fcc7c70f3c70e3c7cf1e3cf4efe0",
    "373f3d3e27e7ce8f3cd4fce5f4f8be9e9ed7d7933352f6ea43fe5bef497e49fde007f933bca4eb25f534fd64fcd437f63fd88ade93fe01dfb8fee00f6a0fe8",
    "97b5ed52f7fc7bf5f77ad7a93b4ebd8bdcf5a848f5ff7ad72deb97a7fff2f58b7ac4ab7a74b97efcbbfe759f08d334e90f26dd9f066dc377ed2ff2dd9360d8",
    "8d4fb16ccea719cf4f718de723d8e4e3198c6633bcc4f731cf6359bdf635c8cff31b84d7319c4f6b5fffeeb7befd6990c6fef09c37b51cef6f3747ffae52c8",
    "15ffc0eb7741cffe0d87ff0f3ffa041ff1707fe1c397cf71ff800d3fbe9ffa013cf7703ff80433ffffff001f20f3fff0007987ffbde003403ffffe0003a3f8",
    "034b7fffde006043dfffd25dc9bebffa01387afffd31f0c5ffffc001217c7ff5ff843fffff00016be7f1fffff7ffec8000032ce53fffffc7fff800000ce200",
    "fe87bdaf6f7fe6b72c6f6bd2d6b5b5ee79deb595ab5ffefec0ed294a5edee73d4e7998f6217febffd2bce77bce739ee70d8a5b5c5439e463dadf9def39de70",
    "40a0402030f0207c1149617c5285349b09a408d620405ffbdffffffbffffffdfbffbfffffffffffeffff000000000000000000000000000000000024178b80",
    "6a4128e63f99def21ddc673b9defbd18866259cc4f399cd4219a86261bde63b909e735984cf718cc4771ac1f775adf7f778f7735ec0e71fedf438affff4098",
    "2d4b047d9efdd7c576dbf4fff3e7edb2ddf26bf64734ca2ef8aecff48ce3fefcf8ff8ac959c37e3b25733fb7ad58e9dfe0fd27827e37c9bfc8f16e4ffa6d80",
    "c721318dca77e3be36e7e73259ee7fe357dff4ee8739e9af52eb439e80efdca5e3cff7cad03eff8cc43fc5ef4efb5e739d873cee3b98439c775ec738ee2f88",
    "e51e670ff0ff1707f8fd1fc7f87f1be3f8ef1fe1f81f0de1ec1da7f1bc3fc0e1fe03a3f8ae1ff07c3f17f3fc079fe833ff807ffe00fff80effc03bff83fff8",
    "6318c6696f7bd8f7bdec6ab35fb5cd7bbcb7f6ef50f29ec4798c568fed796e779ce67d4e47bffd7b4e67baf53c0febf2ecbd22c81bedf57dcf407d9f9fe9d8",
    "1337702c6ff41d7ffc93dffe0e9ffd0f8fffe307ff07c33fe317fff49b7fe001eaf7e07ff4005dfff097fa0038fefffffc003ed3fffffe1008fdfffbfe0100",
    "3264cb1a267df9e7c7861f0c78efc597173c387cdbcbbf7e78f1e18b072c5df865c1cf0e3c39f0c7c31f0c7c73c1cf83fc23f027c0ff05fc1fe8df917e01f0",
    "4b13c0a8ecfd776dd6b6c9bf6f9db469fbd5d3f4f91b6ed9a4797f499b364d9f4fd9f40ddf080be519df5ecfa308fef0fda4beda691fa48efee0dbb03dde50",
    "75afb2d611cf2cf58c71d7bae7d8e7acf98658e718e7bef196b8db996b8e39c630ee0ce19e3bc738671c611c3bc630c700f07d33e3782f42e83c13c2f81f88",
];

/// Whether the seed program solved `p` without an MTTF failure.
pub fn seed_solves(p: PoolParams) -> bool {
    let row = ((p.mtbf - POOL_MTBF.0) / POOL_MTBF.1).round();
    if !(0.0..POOL_MTBF.2 as f64).contains(&row)
        || !(POOL_UNITS.0..=POOL_UNITS.1).contains(&p.units)
    {
        return false;
    }
    let bit = (p.units - POOL_UNITS.0) as usize;
    let Some(nibble) = ROWS[row as usize].as_bytes().get(bit / 4) else {
        return false;
    };
    let value = (*nibble as char).to_digit(16).unwrap_or(0);
    value & (8 >> (bit % 4)) != 0
}

/// Whether the current program's MTTF step succeeds for `p`.
fn mttf_succeeds(p: PoolParams) -> bool {
    let spec = p.spec("probe");
    let model = rascad_core::generate_block(&spec.root.blocks[0].params, &spec.globals)
        .expect("pool block generates");
    rascad_markov::absorbing::mttf(&model.chain, model.ok_state()).is_ok()
}

/// Recomputes [`ROWS`] with the current program (both `min_quantity`
/// variants must agree, as they do on the seed).
pub fn compute_rows() -> Result<Vec<String>, String> {
    let (lo, hi) = POOL_UNITS;
    let mut rows = Vec::new();
    for step in 0..POOL_MTBF.2 {
        let mtbf = POOL_MTBF.0 + POOL_MTBF.1 * step as f64;
        let mut bits = Vec::new();
        for units in lo..=hi {
            let one = mttf_succeeds(PoolParams { units, min_quantity: 1, mtbf });
            let ninety = (f64::from(units) * 0.9).round() as u32;
            let most = mttf_succeeds(PoolParams { units, min_quantity: ninety, mtbf });
            if one != most {
                return Err(format!(
                    "min_quantity changes the MTTF outcome at {units} units, {mtbf} h"
                ));
            }
            bits.push(one);
        }
        bits.resize(bits.len().div_ceil(4) * 4, false);
        let hex: String = bits
            .chunks(4)
            .map(|c| {
                let v = c.iter().fold(0u32, |acc, &b| (acc << 1) | u32::from(b));
                char::from_digit(v, 16).expect("nibble")
            })
            .collect();
        rows.push(hex);
    }
    Ok(rows)
}
