import numpy as np
import pytest

from spectralmae.rng import CounterRng, normal_arrays, permutations


def test_same_seed_same_stream():
    a = CounterRng(1234)
    b = CounterRng(1234)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_scalar_and_vector_paths_agree():
    a = CounterRng(99)
    b = CounterRng(99)
    scalar = np.array([a.next_u64() for _ in range(257)], dtype=np.uint64)
    vector = b.next_u64_array(257)
    assert np.array_equal(scalar, vector)
    assert a.counter == b.counter


def test_uniform_range_and_determinism():
    rng = CounterRng(7)
    u = rng.uniform_array(10_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02
    assert np.array_equal(u, CounterRng(7).uniform_array(10_000))


def test_normal_moments():
    z = CounterRng(11).normal_array(50_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_truncated_normal_bound():
    z = CounterRng(5).truncated_normal_array(20_000, std=0.02, bound=2.0)
    assert np.abs(z).max() <= 0.04 + 1e-12
    assert abs(float(z.std()) - 0.02) < 0.005


def test_permutation_is_permutation():
    rng = CounterRng(3)
    perm = rng.permutation(100)
    assert sorted(perm.tolist()) == list(range(100))
    assert np.array_equal(CounterRng(3).permutation(100), perm)


def test_child_streams_independent_of_parent_position():
    parent = CounterRng(42)
    fixed = parent.child("mask", 0, 3).next_u64()
    parent.next_u64()  # advancing the parent must not move children
    assert CounterRng(42).child("mask", 0, 3).next_u64() == fixed
    assert CounterRng(42).child("mask", 0, 4).next_u64() != fixed


def test_child_rejects_bad_tags():
    with pytest.raises(TypeError):
        CounterRng(1).child(3.5)


def test_randbelow_bounds():
    rng = CounterRng(8)
    draws = [rng.randbelow(7) for _ in range(1000)]
    assert min(draws) >= 0 and max(draws) < 7
    with pytest.raises(ValueError):
        rng.randbelow(0)


def test_state_roundtrip():
    rng = CounterRng(77)
    rng.next_u64_array(13)
    seed, counter = rng.state()
    resumed = CounterRng(seed, counter)
    assert resumed.next_u64() == rng.next_u64()


# permutation(n) of CounterRng(2023).child("perm", n) started at counter 5,
# and the counter it leaves, as the one-randbelow-per-swap loop gave them
_GOLDEN_PERMUTATIONS = {
    0: (5, []),
    1: (5, [0]),
    2: (6, [1, 0]),
    8: (12, [7, 5, 3, 0, 2, 4, 6, 1]),
    100: (104, [51, 68, 22, 1, 20, 48, 81, 97, 60, 11, 65, 25, 54, 41, 4, 71, 47, 2, 89,
        77, 7, 95, 24, 57, 76, 15, 63, 99, 34, 64, 78, 27, 56, 35, 62, 52, 16, 90, 61,
        53, 87, 18, 13, 44, 39, 28, 6, 26, 5, 72, 29, 93, 31, 83, 74, 80, 3, 33, 86, 58,
        23, 45, 37, 49, 10, 79, 30, 85, 98, 92, 9, 12, 94, 59, 96, 55, 69, 42, 88, 50,
        36, 67, 66, 21, 32, 17, 70, 19, 38, 46, 91, 43, 75, 73, 82, 84, 40, 14, 8, 0]),
    576: (580, [420, 441, 232, 139, 537, 536, 282, 486, 199, 209, 183, 385, 110, 309,
        87, 444, 488, 41, 314, 6, 95, 311, 50, 72, 541, 493, 461, 313, 573, 298, 121,
        157, 107, 498, 433, 472, 15, 519, 550, 544, 2, 531, 225, 545, 5, 283, 220, 224,
        392, 83, 343, 239, 405, 302, 215, 190, 176, 165, 523, 169, 367, 543, 35, 344,
        262, 9, 135, 144, 515, 443, 7, 236, 384, 404, 431, 560, 203, 494, 395, 339, 219,
        231, 522, 340, 33, 113, 380, 567, 352, 247, 554, 396, 140, 291, 205, 510, 271,
        398, 25, 450, 76, 214, 103, 175, 451, 294, 53, 452, 32, 525, 315, 293, 3, 281,
        561, 455, 265, 264, 182, 154, 368, 149, 357, 400, 397, 152, 516, 381, 196, 137,
        251, 432, 208, 128, 456, 372, 301, 413, 202, 324, 8, 446, 127, 105, 278, 82,
        363, 557, 114, 115, 549, 155, 321, 430, 481, 129, 505, 187, 131, 56, 491, 308,
        296, 375, 332, 435, 438, 143, 226, 39, 470, 70, 459, 346, 11, 447, 250, 360,
        575, 19, 295, 467, 394, 552, 507, 40, 111, 316, 59, 201, 245, 54, 253, 331, 10,
        68, 276, 551, 16, 362, 273, 477, 186, 210, 212, 288, 501, 509, 177, 163, 161,
        556, 415, 126, 216, 122, 312, 101, 521, 249, 252, 158, 463, 448, 369, 407, 24,
        86, 454, 17, 213, 85, 383, 22, 351, 365, 69, 539, 198, 46, 118, 290, 297, 442,
        119, 524, 28, 389, 410, 31, 257, 305, 490, 34, 21, 63, 255, 23, 401, 336, 260,
        535, 532, 402, 89, 55, 280, 518, 204, 18, 151, 292, 242, 462, 366, 358, 14, 345,
        458, 391, 512, 193, 329, 133, 243, 356, 116, 538, 100, 108, 132, 465, 558, 386,
        189, 483, 171, 411, 222, 499, 241, 256, 12, 436, 390, 270, 263, 64, 542, 379,
        506, 429, 423, 13, 489, 566, 371, 342, 307, 474, 168, 528, 244, 73, 117, 317,
        440, 377, 4, 279, 553, 570, 173, 349, 52, 91, 184, 44, 546, 299, 229, 43, 38,
        319, 468, 354, 167, 153, 487, 530, 300, 484, 399, 192, 533, 48, 36, 246, 159,
        134, 353, 500, 382, 90, 207, 503, 123, 565, 320, 508, 67, 160, 426, 45, 166,
        572, 529, 104, 51, 476, 337, 473, 61, 434, 419, 425, 495, 469, 502, 479, 112,
        221, 94, 88, 268, 138, 562, 58, 338, 261, 574, 414, 555, 361, 289, 254, 496,
        341, 30, 124, 318, 287, 180, 548, 75, 269, 492, 453, 248, 178, 408, 57, 310, 80,
        66, 65, 437, 464, 286, 482, 98, 547, 417, 230, 272, 322, 564, 217, 571, 478,
        150, 527, 306, 427, 218, 475, 78, 569, 347, 60, 568, 326, 99, 81, 457, 327, 240,
        403, 188, 238, 406, 412, 92, 374, 47, 0, 267, 333, 234, 534, 334, 93, 460, 181,
        285, 376, 147, 1, 409, 424, 102, 49, 170, 227, 466, 136, 156, 145, 62, 485, 445,
        504, 364, 540, 237, 526, 359, 125, 206, 200, 26, 439, 106, 258, 141, 471, 563,
        559, 274, 77, 328, 233, 370, 335, 235, 520, 514, 511, 109, 195, 146, 350, 480,
        378, 266, 20, 387, 29, 228, 275, 27, 330, 37, 97, 211, 303, 517, 148, 164, 421,
        418, 194, 79, 71, 304, 42, 355, 449, 416, 388, 497, 284, 162, 191, 74, 96, 179,
        172, 259, 120, 428, 422, 513, 185, 223, 393, 197, 373, 130, 174, 277, 348, 142,
        84, 325, 323]),
}


@pytest.mark.parametrize("n", sorted(_GOLDEN_PERMUTATIONS))
def test_permutation_matches_golden_values_and_counter(n):
    rng = CounterRng(2023).child("perm", n)
    rng.counter = 5
    counter, want = _GOLDEN_PERMUTATIONS[n]
    perm = rng.permutation(n)
    assert perm.dtype == np.int64
    assert perm.tolist() == want
    assert rng.counter == counter


def _loop_permutation(rng, n):
    """Reference Fisher-Yates: one randbelow per swap."""
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randbelow(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


@pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 64])
def test_permutations_match_the_swap_loop_for_each_rng(n):
    rngs = [CounterRng(9).child(n, i) for i in range(5)]
    twins = [CounterRng(9).child(n, i) for i in range(5)]
    for i, (r, t) in enumerate(zip(rngs, twins)):  # each starts at its own counter
        r.next_u64_array(3 * i)
        t.next_u64_array(3 * i)
    rows = permutations(rngs, n)
    assert rows.dtype == np.int64 and rows.shape == (5, n)
    assert rows.tolist() == [_loop_permutation(t, n) for t in twins]
    assert [r.state() for r in rngs] == [t.state() for t in twins]


def _loop_normals(rng, n):
    """Reference Box-Muller: n draws for u1, then n for u2."""
    u1 = ((rng.next_u64_array(n) >> np.uint64(11)) + np.uint64(1)) / float(1 << 53)
    u2 = (rng.next_u64_array(n) >> np.uint64(11)) / float(1 << 53)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 33, 130])
def test_normal_arrays_match_normal_array_for_each_rng(n):
    def streams():
        out = [CounterRng(11).child(n, i) for i in range(4)]
        for i, r in enumerate(out):  # each starts at its own counter
            r.next_u64_array(5 * i)
        return out

    rngs, twins, loops = streams(), streams(), streams()
    rows = normal_arrays(rngs, n)
    assert rows.dtype == np.float64 and rows.shape == (4, n)
    for row, twin, loop in zip(rows, twins, loops):
        assert row.tobytes() == twin.normal_array(n).tobytes()
        assert row.tobytes() == _loop_normals(loop, n).tobytes()
    assert [r.state() for r in rngs] == [t.state() for t in twins] \
        == [t.state() for t in loops]
