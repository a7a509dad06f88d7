//! Results pinned at the default seed: a run that differs fails.

/// Simulator point fingerprints ([`crate::sim::fingerprint`]) at
/// [`crate::DEFAULT_SEED`], by point label (labels are unique across
/// the two simulator workloads).
const SIM: [(&str, u64); 58] = [
    ("OLTP/TokenCMP-arb0", 0x7baf_891e_4be3_447a),
    ("OLTP/TokenCMP-dst0", 0xd695_8134_2797_13e9),
    ("OLTP/TokenCMP-dst4", 0xd593_6dff_d1b3_8e7b),
    ("OLTP/TokenCMP-dst1", 0x134f_5afd_6b62_4caf),
    ("OLTP/TokenCMP-dst1-pred", 0x2852_9606_6834_db80),
    ("OLTP/TokenCMP-dst1-filt", 0x9abe_5830_b417_6a82),
    ("OLTP/DirectoryCMP", 0xc929_f4ae_d728_30ff),
    ("OLTP/DirectoryCMP-zero", 0x903c_f951_6b5f_1372),
    ("OLTP/PerfectL2", 0xd9ea_b213_dd3b_62df),
    ("Apache/TokenCMP-arb0", 0xb5cc_fc9c_8881_99b8),
    ("Apache/TokenCMP-dst0", 0xba80_9221_836e_7091),
    ("Apache/TokenCMP-dst4", 0x1a9e_2fc4_29dc_ac77),
    ("Apache/TokenCMP-dst1", 0xc778_9d75_ead1_f428),
    ("Apache/TokenCMP-dst1-pred", 0x6a70_840b_da7e_7f08),
    ("Apache/TokenCMP-dst1-filt", 0xc476_9781_2a9b_a22a),
    ("Apache/DirectoryCMP", 0xc017_201f_192c_6e34),
    ("Apache/DirectoryCMP-zero", 0xfbfd_277a_d9fd_53ec),
    ("Apache/PerfectL2", 0x72c7_da3b_946a_c8bb),
    ("SpecJBB/TokenCMP-arb0", 0x6ebe_18f1_4019_4b6b),
    ("SpecJBB/TokenCMP-dst0", 0x5667_3941_88c3_1dd4),
    ("SpecJBB/TokenCMP-dst4", 0xb63f_8794_8b7e_6a82),
    ("SpecJBB/TokenCMP-dst1", 0x7e37_ed51_957a_c564),
    ("SpecJBB/TokenCMP-dst1-pred", 0xe896_74b0_4d01_0ab9),
    ("SpecJBB/TokenCMP-dst1-filt", 0x8ac4_4a68_3590_6fbc),
    ("SpecJBB/DirectoryCMP", 0x081f_2472_5aee_455b),
    ("SpecJBB/DirectoryCMP-zero", 0x83d2_2188_c30b_5d1d),
    ("SpecJBB/PerfectL2", 0x5a87_fd10_f0e3_6999),
    ("OLTP/TokenCMP-arb0/seed+1", 0xeb31_f8f4_57ee_0774),
    ("OLTP/TokenCMP-dst0/seed+1", 0xaf5e_e754_d8b7_4c4e),
    ("OLTP/TokenCMP-dst4/seed+1", 0x8e5e_ae93_0f76_c838),
    ("OLTP/TokenCMP-dst1/seed+1", 0x43dc_0b57_a6ff_f897),
    ("OLTP/TokenCMP-dst1-pred/seed+1", 0xa423_ac83_2c16_e583),
    ("OLTP/TokenCMP-dst1-filt/seed+1", 0xe7cb_4dce_b555_f32f),
    ("OLTP/DirectoryCMP/seed+1", 0x0ed6_557a_8bd5_4e7f),
    ("OLTP/DirectoryCMP-zero/seed+1", 0x6d79_a13f_315d_5016),
    ("OLTP/PerfectL2/seed+1", 0x1fd3_5b46_3693_d1cc),
    ("Apache/TokenCMP-arb0/seed+1", 0xd2bc_a806_97a1_c383),
    ("Apache/TokenCMP-dst0/seed+1", 0x27fc_7a01_ab5b_f694),
    ("Apache/TokenCMP-dst4/seed+1", 0xc5c4_b2cf_7035_cf0d),
    ("Apache/TokenCMP-dst1/seed+1", 0x6746_87aa_1990_6233),
    ("Apache/TokenCMP-dst1-pred/seed+1", 0xbb36_f7f7_29bf_d921),
    ("Apache/TokenCMP-dst1-filt/seed+1", 0x7252_b22e_a1b2_26a9),
    ("Apache/DirectoryCMP/seed+1", 0xb0c6_7994_73e5_f26c),
    ("Apache/DirectoryCMP-zero/seed+1", 0x02d9_e4e3_a99c_b9c5),
    ("Apache/PerfectL2/seed+1", 0x9cc7_255f_d4af_5f27),
    ("SpecJBB/TokenCMP-arb0/seed+1", 0xa87e_e614_0aba_b108),
    ("SpecJBB/TokenCMP-dst0/seed+1", 0x53ba_e96c_c003_db90),
    ("SpecJBB/TokenCMP-dst4/seed+1", 0x2053_a69a_b957_b71a),
    ("SpecJBB/TokenCMP-dst1/seed+1", 0xd8c0_7fff_1237_7a2a),
    ("SpecJBB/TokenCMP-dst1-pred/seed+1", 0xbc14_1d91_3d38_9177),
    ("SpecJBB/TokenCMP-dst1-filt/seed+1", 0x12d6_82fd_db65_0192),
    ("SpecJBB/DirectoryCMP/seed+1", 0x08a3_29e5_8fd2_c131),
    ("SpecJBB/DirectoryCMP-zero/seed+1", 0xc824_a36a_8182_0678),
    ("SpecJBB/PerfectL2/seed+1", 0xb053_adf8_d070_d3ec),
    ("mesh-64x4/TokenCMP-dst1/seed+0", 0xe02c_9409_da21_a78f),
    ("mesh-64x4/TokenCMP-dst1/seed+1", 0x544e_9673_70fe_61a8),
    ("mesh-64x4/TokenCMP-dst1/seed+2", 0x65f3_5ab2_e45d_76f0),
    ("mesh-64x4/TokenCMP-dst1/seed+3", 0xa766_39b4_c634_6bee),
];

/// Fingerprint of a simulator point at the default seed.
pub fn sim_fp(label: &str) -> Option<u64> {
    SIM.iter().find(|(l, _)| *l == label).map(|(_, fp)| *fp)
}

/// Model-check results with symmetry + POR (any worker count):
/// config, verdict, states, transitions, depth.
const MCHECK: [(&str, &str, u64, u64, u64); 5] = [
    ("small/SafetyOnly", "ok", 8_437, 30_618, 20),
    ("small/Distributed", "ok", 85_483, 346_836, 48),
    ("small/Arbiter", "ok", 15_855, 43_483, 33),
    ("small_recovery/SafetyOnly", "ok", 48_331, 215_825, 29),
    ("dir/small", "ok", 52_318, 130_604, 61),
];

/// Pinned `(verdict, states, transitions, depth)` of a config.
pub fn mcheck(config: &str) -> Option<(&'static str, u64, u64, u64)> {
    MCHECK
        .iter()
        .find(|(c, ..)| *c == config)
        .map(|&(_, v, s, t, d)| (v, s, t, d))
}
