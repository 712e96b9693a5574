//! Key generation pinned draw for draw: for each seed and size, the key
//! (through a hash of its DER) and the generator's next draw. Faster
//! trial division, trimming or Miller–Rabin arithmetic must leave both
//! unmoved; a changed draw count would shift every key generated after.

use rsa_repro::RsaPrivateKey;
use simrng::Rng64;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// `(bits, seed, FNV-1a of the key's DER, the generator's next draw)`.
const PINNED: [(usize, u64, u64, u64); 12] = [
    (256, 0, 0x5197_f2c2_7c14_5cca, 0xf58a_87a6_e82f_cbdf),
    (256, 1, 0x9be8_c315_91a6_ffd3, 0x05ff_0f2e_6b39_12df),
    (256, 2, 0xd7bb_8168_480b_2417, 0x4f3b_2340_e052_7960),
    (256, 3, 0x2120_38a5_10be_ddaf, 0x5882_3d8e_c38d_1357),
    (512, 0, 0xbcd8_9bbf_1dc0_abd0, 0xba15_0956_e0c6_30bb),
    (512, 1, 0x2913_5df3_818c_b325, 0xe68e_f890_ee87_dfb4),
    (512, 2, 0x4b1c_5a26_6550_470e, 0xcba8_b4fa_94d9_f74f),
    (512, 3, 0x33f2_e416_7c24_9def, 0x10c1_d4ad_703c_5ff2),
    (1024, 0, 0x0d00_534d_6593_c480, 0xb940_d49f_0977_666f),
    (1024, 1, 0x13f7_f70c_d27a_d1e1, 0x74be_7789_bf3a_31d9),
    (1024, 2, 0x54f8_4f53_d26d_6ee4, 0xb9f4_c3b2_fc78_08ad),
    (1024, 3, 0x1abe_eb1e_72fe_c98c, 0x3787_38b1_35b9_e5a0),
];

#[test]
fn generated_keys_and_the_next_draw_are_pinned() {
    for (bits, seed, der_hash, next_draw) in PINNED {
        let mut rng = Rng64::new(seed);
        let key = RsaPrivateKey::generate(bits, &mut rng);
        assert_eq!(
            (fnv1a(&key.to_der()), rng.next_u64()),
            (der_hash, next_draw),
            "RSA-{bits}, seed {seed}"
        );
    }
}
