import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import divdim
from divdim import cli, divposets
from divdim.cli import main
from divdim.primes import sieve_primes


def test_sieve(capsys):
    assert main(["sieve", "--limit", "100"]) == 0
    out = capsys.readouterr().out
    assert "pi(100) = 25" in out
    assert "97" in out


def test_sieve_json(capsys):
    assert main(["sieve", "--limit", "10", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["prime_count"] == 4


def test_exact_dim_divisibility(capsys):
    assert main(["exact-dim", "--divisibility", "8"]) == 0
    assert "dimension = 2" in capsys.readouterr().out


def test_exact_dim_with_primes_json(capsys):
    assert main(
        ["exact-dim", "--divisibility", "30", "--primes", "2,3,5", "--json"]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dimension"] == 3


def test_exact_dim_edges(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text("a < b\nc < b\n")
    assert main(["exact-dim", "--edges", str(edges)]) == 0
    assert "dimension = 2" in capsys.readouterr().out


def test_exact_dim_requires_one_source(capsys):
    assert main(["exact-dim"]) == 2


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_exact_dim_guard_exit_code():
    assert main(["exact-dim", "--divisibility", "100"]) == 3


def test_exact_dim_guard_fires_before_the_poset_is_built():
    # the relation of [10^6] would take 125 GB
    done = _divdim("exact-dim", "--divisibility", "1000000", timeout=20)
    assert done.returncode == 3, done.stderr
    assert done.stderr.startswith("guard: ")
    assert "Traceback" not in done.stderr


def test_exact_dim_edges_guard_fires_before_the_poset_is_built(tmp_path):
    # closing the relation of a 3001-element chain took seconds
    edges = tmp_path / "chain.txt"
    edges.write_text("".join(f"v{i} < v{i + 1}\n" for i in range(3000)))
    done = _divdim("exact-dim", "--edges", str(edges), timeout=5)
    assert done.returncode == 3, done.stderr
    assert done.stderr.startswith("guard: ")
    assert "Traceback" not in done.stderr


def test_exact_dim_edges_at_the_guard_still_runs(tmp_path, capsys):
    edges = tmp_path / "chain.txt"
    edges.write_text("".join(f"v{i} < v{i + 1}\n" for i in range(24)))
    assert main(["exact-dim", "--edges", str(edges)]) == 0
    assert "dimension = 1" in capsys.readouterr().out
    assert main(["exact-dim", "--edges", str(edges), "--max-size", "24"]) == 3


def test_exact_dim_with_a_raised_guard_does_not_warn():
    # the CLI checks --max-size itself; a warning against the default
    # guard of 25, with a source path, is noise on stderr
    done = _divdim(
        "exact-dim", "--divisibility", "1000", "--primes", "2,3", "--max-size", "400", timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_exact_dim_sieves_only_to_the_largest_given_prime(monkeypatch, capsys):
    limits = []

    def sieve(limit):
        limits.append(limit)
        return sieve_primes(limit)

    monkeypatch.setattr(cli, "sieve_primes", sieve)
    assert main(["exact-dim", "--divisibility", str(10**8), "--primes", "2,3"]) == 3
    assert main(["exact-dim", "--divisibility", "30", "--primes", "2,3,5", "--json"]) == 0
    assert main(["exact-dim", "--divisibility", "30", "--primes", "2,31"]) == 2
    assert main(["exact-dim", "--divisibility", "8"]) == 0
    assert limits == [3, 5, 30, 8]


@pytest.mark.parametrize(
    "primes,message",
    [
        ("2,13", "error: 13 outside table limit 10"),
        ("2,9", "error: 9 is not prime"),
        ("1", "error: 1 is not prime"),
        ("0", "error: 0 is not prime"),
    ],
)
def test_exact_dim_bad_prime_is_a_usage_error(capsys, primes, message):
    assert main(["exact-dim", "--divisibility", "10", "--primes", primes]) == 2
    assert capsys.readouterr().err.strip() == message


def test_exact_dim_repeated_prime_is_dropped(capsys):
    assert main(["exact-dim", "--divisibility", "10", "--primes", "2"]) == 0
    once = capsys.readouterr()
    assert main(["exact-dim", "--divisibility", "10", "--primes", "2,2"]) == 0
    assert capsys.readouterr() == once


def test_suitable(tmp_path, capsys):
    out = tmp_path / "s.json"
    code = main(
        ["suitable", "--n", "100", "--a", "7", "--b", "97", "--seed", "0",
         "--json", str(out)]
    )
    assert code == 0
    assert "verified" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert len(data["primes"]) == 21
    assert len(data["ranks"]) == 19


@pytest.mark.parametrize(
    "args,line,digest",
    [
        (
            "--n 10000 --a 10 --b 10000 --seed 0",
            "suitable set for (10.0, 10000.0], n=10000: 66 permutations of 1225 primes "
            "(seed 0, retry 0)",
            "6ccfe0514e252d19e71cf105e1b65a1e70b3ca82f7cb115f02fa095d3c8edd86",
        ),
        # these two pass only at retry index 1
        (
            "--n 100 --a 7 --b 97 --seed 185",
            "suitable set for (7.0, 97.0], n=100: 19 permutations of 21 primes "
            "(seed 185, retry 1)",
            "aef31d9a0cdac5715729ca47a40981f902c40bcca52498896ab9bc471f495ad0",
        ),
        (
            "--n 2000 --a 28 --b 2000 --seed 38",
            "suitable set for (28.0, 2000.0], n=2000: 31 permutations of 294 primes "
            "(seed 38, retry 1)",
            "ab049e7e48d2e0e9b6d6d0aab3acfcd00834891ff2abef16ba72e0931e322b91",
        ),
    ],
)
def test_suitable_output_is_pinned(tmp_path, capsys, args, line, digest):
    out = tmp_path / "set.json"
    assert main(["suitable", *args.split(), "--json", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == line
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_suitable_out_of_retries_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(divposets, "RETRY_BUDGET", 0)
    out = tmp_path / "set.json"
    assert main(["suitable", "--n", "100", "--a", "7", "--b", "97", "--json", str(out)]) == 3
    assert capsys.readouterr().err == (
        "guard: no suitable set found for (7.0, 97.0] with n=100 in 0 retries "
        "at draw size 19\n"
    )
    assert not out.exists()


def test_coverfree_build_and_verify(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    assert main(
        ["coverfree", "build", "--q", "4", "--h", "1", "--verify", "3",
         "--json", str(fam)]
    ) == 0
    out = capsys.readouterr().out
    assert "16 sets" in out and "verified 3-cover-free" in out
    assert main(["coverfree", "verify", "--family", str(fam), "--r", "3"]) == 0
    # r too ambitious: q <= r h permits covering
    assert main(["coverfree", "verify", "--family", str(fam), "--r", "4"]) == 1


def test_coverfree_sampled(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    main(["coverfree", "build", "--q", "8", "--h", "1", "--json", str(fam)])
    capsys.readouterr()
    assert main(
        ["coverfree", "verify", "--family", str(fam), "--r", "7", "--sampled", "2000"]
    ) == 0
    assert "samples" in capsys.readouterr().out


def test_coverfree_sampled_verdict_says_it_was_sampled(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    main(["coverfree", "build", "--q", "4", "--h", "1", "--json", str(fam)])
    capsys.readouterr()
    assert main(
        ["coverfree", "verify", "--family", str(fam), "--r", "3", "--sampled", "300"]
    ) == 0
    assert capsys.readouterr().out == (
        "3-cover-free (sampled: no counterexample found in 300 samples)\n"
    )


def test_coverfree_non_prime_power(capsys):
    assert main(["coverfree", "build", "--q", "6", "--h", "1"]) == 2


def test_certify_verify_cycle(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert main(["certify", "--n", "150", "--seed", "3", "--out", str(cert)]) == 0
    assert main(["verify", "--cert", str(cert)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_verify_mutated_certificate_fails(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    main(["certify", "--n", "150", "--seed", "3", "--out", str(cert)])
    data = json.loads(cert.read_text())
    for zone in data["zones"]:
        if zone["kind"] == "random-suitable":
            zone["ranks"][0][0] ^= 1
            break
    cert.write_text(json.dumps(data))
    assert main(["verify", "--cert", str(cert)]) == 1
    err = capsys.readouterr().err
    assert "witness" in err


def test_verify_large_certificate_exhaustively(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    main(["certify", "--n", "2500", "--seed", "0", "--out", str(cert)])
    capsys.readouterr()
    assert main(["verify", "--cert", str(cert)]) == 0
    assert capsys.readouterr().out.startswith(
        f"PASS: exhaustive verification, {2500 * 2499} ordered pairs in "
    )
    assert main(["verify", "--cert", str(cert), "--sampled", "3000"]) == 0


def test_bounds(capsys):
    assert main(["bounds", "--n", "1000,1000000"]) == 0
    out = capsys.readouterr().out
    assert "72.68" in out or "72.69" in out
    assert "o(1) dropped" in out


def test_bounds_json(capsys):
    assert main(["bounds", "--n", "100", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["n"] == 100


def test_bounds_beyond_the_float_range(capsys):
    # the text table used to raise OverflowError, and the CLI exit 1
    assert main(["bounds", "--n", str(10**400)]) == 0
    assert capsys.readouterr().out.splitlines()[1].split()[0] == "1e+400"
    assert main(["bounds", "--n", str(10**400), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["n"] == 10**400


def test_bounds_reports_the_certificate_dimension(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert main(["certify", "--n", "1000", "--seed", "0", "--out", str(cert)]) == 0
    capsys.readouterr()
    assert main(["bounds", "--n", "1000,100000", "--cert", str(cert)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[-1] == "cert"
    assert lines[1].split()[0] == "1000" and lines[1].split()[-1] == "153"
    assert lines[2].split()[0] == "100000" and lines[2].split()[-1] == "-"
    assert main(["bounds", "--n", "1000,100000", "--cert", str(cert), "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["certificate_dimension"] for r in rows] == [153, None]


def test_bounds_refuses_a_certificate_whose_n_is_not_listed(tmp_path, capsys):
    # the certificate's dimension would otherwise be dropped without a word
    cert = tmp_path / "cert.json"
    assert main(["certify", "--n", "150", "--seed", "0", "--out", str(cert)]) == 0
    capsys.readouterr()
    for extra in ([], ["--json"]):
        assert main(["bounds", "--n", "1000", "--cert", str(cert), *extra]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: the certificate is for n=150, which --n does not list\n"


def test_exact_dim_above_max_d_says_so(capsys):
    assert main(["exact-dim", "--divisibility", "12", "--max-d", "1"]) == 0
    assert capsys.readouterr().out == "dimension exceeds max_d = 1\n"


def test_coverfree_build_verify_failure_gives_a_witness(capsys):
    assert main(["coverfree", "build", "--q", "3", "--h", "1", "--verify", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "not 5-cover-free: witness (0, (1, 2, 3, 4, 5))\n"
    assert "verified" not in captured.out


def test_usage_error_exit_code(capsys):
    assert main(["bounds", "--n", "2"]) == 2
    assert main(["no-such-command"]) == 2


def test_missing_file_exit_code(capsys):
    assert main(["verify", "--cert", "/nonexistent/cert.json"]) == 2


def test_verify_json_output(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    main(["certify", "--n", "60", "--seed", "0", "--out", str(cert)])
    capsys.readouterr()
    assert main(["verify", "--cert", str(cert), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    assert data["pairs_checked"] == 60 * 59


def test_verify_json_gives_the_time_of_each_phase(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    main(["certify", "--n", "60", "--seed", "0", "--out", str(cert)])
    capsys.readouterr()
    assert main(["verify", "--cert", str(cert), "--sampled", "100", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "wall_time" not in data
    assert data["integrity_s"] > 0 and data["functional_s"] > 0


def test_inputs_beyond_word_cap_rejected(capsys):
    assert main(["sieve", "--limit", str(2**63)]) == 2
    assert main(["certify", "--n", str(2**63), "--out", "/tmp/x.json"]) == 2


@pytest.mark.parametrize(
    "n,seed,digest",
    [
        (150, 3, "e3821058664a235752667bb20834da31895edc71e552e49c8d6dfb295cc06439"),
        # the random-suitable zones of these two pass only at retry index 1
        (23, 0, "62cd6d529061e3876415100638f8c2d65125f9d686e1ec5744020ceee3ecbea7"),
        (1738, 0, "fa9655396b9f76181f81427bc5c6d765543f17b649b8e00f9b6792a194f8ca7b"),
        (1000, 0, "4cbf348a3bce7f0736b64ff0e656c497ad0d06b4aab9b064f917469423d160c0"),
        (2000, 0, "b32e4835bc6452639d33e7f067c41e743877698348f847dc26478bf102c98488"),
        # the only pin that runs the block draw and the numpy suitability check
        (100000, 0, "ec330e99dbe58b6dc1f3c129f6f2a21d45155541052049a1427512d4eaba1380"),
    ],
)
def test_certify_output_is_pinned(tmp_path, capsys, n, seed, digest):
    cert = tmp_path / "cert.json"
    assert main(["certify", "--n", str(n), "--seed", str(seed), "--out", str(cert)]) == 0
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == digest


@pytest.fixture(scope="module")
def cert_2000(tmp_path_factory):
    path = tmp_path_factory.mktemp("cert") / "cert.json"
    assert main(["certify", "--n", "2000", "--seed", "0", "--out", str(path)]) == 0
    return json.loads(path.read_text())


@pytest.mark.parametrize(
    "key,value", [("retry_index", 10**12), ("retry_index", -1), ("target_size", 10**12)]
)
def test_tampered_recipe_fails_fast(tmp_path, capsys, cert_2000, key, value):
    data = json.loads(json.dumps(cert_2000))
    zone = next(z for z in data["zones"] if z["kind"] == "random-suitable")
    zone[key] = value
    cert = tmp_path / "tampered.json"
    cert.write_text(json.dumps(data))
    capsys.readouterr()
    # sampled mode keeps the pair phase short, so the time is the
    # integrity phase's: it must not size a draw or a seed walk by the
    # recorded value
    start = time.perf_counter()
    assert main(["verify", "--cert", str(cert), "--sampled", "100"]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "witness: ('zone" in err and f"(random-suitable)', '{key}" in err


_KIND_DIFFERS = "kind differs from the recomputed plan's"


def _swap_zones_1_and_2(data):
    zones = data["zones"]
    zones[1], zones[2] = zones[2], zones[1]


# without the top zone, 67, its smallest prime, lies at or below 1 in
# every coordinate; eps 1.5 and the swap leave the coordinates a realiser
@pytest.mark.parametrize(
    "edit,integrity,prime",
    [
        (lambda d: d.update(zones=d["zones"][:-1]), [("plan", "expected 3 zones, found 2")], 67),
        (lambda d: d.update(eps=1.5), [("plan", "eps must lie in (0, 1)")], None),
        (
            _swap_zones_1_and_2,
            [
                ("zone 1 (random-suitable)", f"{_KIND_DIFFERS} 'cover-free'"),
                ("zone 2 (cover-free)", f"{_KIND_DIFFERS} 'random-suitable'"),
            ],
            None,
        ),
    ],
    ids=["last-zone-dropped", "eps-1.5", "zones-1-and-2-swapped"],
)
def test_certificate_off_its_plan_fails_integrity(
    tmp_path, capsys, cert_2000, edit, integrity, prime
):
    data = json.loads(json.dumps(cert_2000))
    edit(data)
    cert = tmp_path / "edited.json"
    cert.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--cert", str(cert)]) == 1
    out, err = capsys.readouterr()
    kind = "coordinates-leq-but-not-divisible"
    pairs = [] if prime is None else [(prime, 1, kind)]
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("  integrity: ")] == [
        f"  integrity: {w}" for w in integrity
    ]
    assert [line for line in lines if line.startswith("  pair: ")] == [
        f"  pair: {w}" for w in pairs
    ]
    assert err.splitlines() == [f"witness: {w}" for w in [*integrity[:5], *pairs[:5]]]


def test_certify_out_of_retries_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(divposets, "RETRY_BUDGET", 0)
    cert = tmp_path / "cert.json"
    assert main(["certify", "--n", "1000", "--out", str(cert)]) == 3
    assert capsys.readouterr().err == (
        "guard: zone 2: no suitable set found for (41.89287092792307, 1000.0] "
        "with n=1000 in 0 retries at draw size 23\n"
    )
    assert not cert.exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_certify_seed_outside_64_bits_exits_2_and_writes_nothing(tmp_path, capsys, seed):
    # the generator masks its seed to 64 bits, so 2^64 would draw seed 0's zones
    cert = tmp_path / "cert.json"
    assert main(["certify", "--n", "1000", "--seed", str(seed), "--out", str(cert)]) == 2
    assert capsys.readouterr().err == f"error: seed {seed} is outside 0..2^64-1\n"
    assert not cert.exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_every_seed_option_outside_64_bits_exits_2(tmp_path, capsys, seed):
    cert, fam, out = tmp_path / "cert.json", tmp_path / "fam.json", tmp_path / "s.json"
    assert main(["certify", "--n", "60", "--out", str(cert)]) == 0
    assert main(["coverfree", "build", "--q", "4", "--h", "1", "--json", str(fam)]) == 0
    capsys.readouterr()
    for argv in (
        ["suitable", "--n", "1000", "--a", "10", "--b", "1000", "--json", str(out)],
        ["verify", "--cert", str(cert), "--sampled", "50"],
        ["coverfree", "verify", "--family", str(fam), "--r", "3", "--sampled", "10"],
        # exhaustive mode draws nothing, and refuses the seed all the same
        ["verify", "--cert", str(cert)],
        ["coverfree", "verify", "--family", str(fam), "--r", "3"],
    ):
        assert main([*argv, "--seed", str(seed)]) == 2, argv
        assert capsys.readouterr() == ("", f"error: seed {seed} is outside 0..2^64-1\n")
    assert not out.exists()


@pytest.mark.parametrize("seed", [2**64, -(2**64)])
@pytest.mark.parametrize("mode", [[], ["--sampled", "500"]], ids=["exhaustive", "sampled"])
def test_recorded_seed_outside_64_bits_fails_integrity(tmp_path, capsys, seed, mode):
    # such a seed aliases seed 0, so every zone still matches its derivation
    cert = tmp_path / "cert.json"
    assert main(["certify", "--n", "1000", "--seed", "0", "--out", str(cert)]) == 0
    data = json.loads(cert.read_text())
    data["seed"] = seed
    cert.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--cert", str(cert), *mode]) == 1
    out, err = capsys.readouterr()
    assert [line for line in out.splitlines() if line.startswith("  integrity: ")] == [
        f"  integrity: ('seed', {seed})"
    ]
    assert err == f"witness: ('seed', {seed})\n"


@pytest.mark.parametrize("value", ["0", "-1"])
def test_exact_dim_max_size_below_1_is_a_usage_error(capsys, value):
    assert main(["exact-dim", "--divisibility", "10", "--max-size", value]) == 2
    assert f"argument --max-size: must be at least 1, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_coverfree_build_verify_below_1_is_refused_before_the_build(tmp_path, capsys, value):
    fam = tmp_path / "fam.json"
    argv = ["coverfree", "build", "--q", "4", "--h", "3", "--verify", value, "--json", str(fam)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --verify: must be at least 1, got {value}" in captured.err
    assert not fam.exists()


def _divdim(*args, timeout, stdout=subprocess.PIPE, **env):
    """divdim run in a separate process, so a hang or a traceback shows."""
    src = str(Path(divdim.__file__).parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "divdim.cli", *args],
        env=dict(os.environ, PYTHONPATH=src, **env),
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )


# Python writes stdout to a pipe at once when PYTHONUNBUFFERED is set,
# else at the flush after the command or at exit
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "args, flip, status",
    [
        (["verify"], False, 0),
        (["verify", "--sampled", "100"], False, 0),
        (["verify", "--json"], False, 0),
        (["verify"], True, 1),
        # more than a pipe buffer of output
        (["bounds", "--n", ",".join(map(str, range(100, 400)))], False, 0),
    ],
    ids=["verify", "sampled", "json", "flipped", "bounds"],
)
def test_a_closed_stdout_keeps_the_exit_code(tmp_path, args, flip, status, unbuffered):
    # the read end is closed before divdim starts, so every write to
    # stdout fails, whenever it happens
    cert = tmp_path / "cert.json"
    assert main(["certify", "--n", "60", "--out", str(cert)]) == 0
    if flip:
        data = json.loads(cert.read_text())
        _zone(data, "random-suitable")["ranks"][0][0] ^= 1
        cert.write_text(json.dumps(data))
    if args[0] == "verify":
        args = [*args, "--cert", str(cert)]
    read, write = os.pipe()
    os.close(read)
    try:
        done = _divdim(*args, timeout=30, stdout=write, PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write)
    assert done.returncode == status, done.stderr
    assert "Broken pipe" not in done.stderr and "Traceback" not in done.stderr
    assert ("witness:" in done.stderr) == flip


# each edit breaks one zone's record; exhaustive verify names the zone in
# a pair line, and where the coordinates still realise divisibility
# (primes out of order carry their rank columns along) integrity does
ZONE_RECORD_EDITS = {
    "composite-recorded-as-prime": (
        lambda d: _zone(d, "random-suitable")["primes"].__setitem__(0, 68),
        ["  pair: ('zone 2 (random-suitable)', '68 is not a prime up to n=2000')"],
    ),
    "prime-in-two-zones": (
        lambda d: _zone(d, "chains")["primes"].append(67),
        [
            "  pair: ('zone 0 (chains)', '67 is recorded more than once')",
            "  pair: ('zone 2 (random-suitable)', '67 is recorded more than once')",
        ],
    ),
    "primes-out-of-order": (
        lambda d: _zone(d, "random-suitable")["primes"].reverse(),
        ["  integrity: ('zone 2 (random-suitable)', 'primes differs from its derivation')"],
    ),
    "zone-with-no-rows": (
        lambda d: _zone(d, "random-suitable").update(ranks=[]),
        ["  pair: ('zone 2 (random-suitable)', 'at least one permutation is required')"],
    ),
}


@pytest.mark.parametrize("case", list(ZONE_RECORD_EDITS))
def test_zone_record_edit_fails_naming_the_zone(tmp_path, cert_2000, case):
    edit, expected = ZONE_RECORD_EDITS[case]
    data = json.loads(json.dumps(cert_2000))
    assert _zone(data, "random-suitable")["primes"][0] == 67
    edit(data)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(data))
    done = _divdim("verify", "--cert", str(cert), timeout=30)
    assert done.returncode == 1, done.stderr
    lines = done.stdout.splitlines()
    assert all(line in lines for line in expected), done.stdout
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "n,kind,key,value",
    [
        (60, "chains", "primes", 1),
        (60, "random-suitable", "ranks", 10**12),
        (60, "random-suitable", "ranks", 2**70),
        (1000, "cover-free", "sigma_ranks", 10**11),
    ],
)
@pytest.mark.parametrize("mode", [[], ["--sampled", "200"]], ids=["exhaustive", "sampled"])
def test_unbounded_recorded_value_fails_fast(tmp_path, n, kind, key, value, mode):
    # the functional phase runs on the recorded values after integrity
    # has failed, so none of them may size its work; a separate process
    # with a timeout turns a hang into a failure
    cert = tmp_path / "cert.json"
    assert main(["certify", "--n", str(n), "--seed", "0", "--out", str(cert)]) == 0
    data = json.loads(cert.read_text())
    recorded = next(z for z in data["zones"] if z["kind"] == kind)[key]
    (recorded[0] if isinstance(recorded[0], list) else recorded)[0] = value
    cert.write_text(json.dumps(data))
    done = _divdim("verify", "--cert", str(cert), *mode, timeout=5)
    assert done.returncode == 1, done.stderr
    assert f"witness: ('zone" in done.stderr and f"({kind})', '{key}" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("mode", [[], ["--sampled", "5"]], ids=["exhaustive", "sampled"])
def test_verify_of_one_number_has_no_pairs(tmp_path, mode):
    # with n = 1 there is no ordered pair a != b; a separate process with
    # a timeout turns a sampler that waits for one into a failure
    cert = tmp_path / "cert.json"
    assert main(["certify", "--n", "1", "--out", str(cert)]) == 0
    done = _divdim("verify", "--cert", str(cert), *mode, timeout=5)
    assert done.returncode == 0, done.stderr
    assert " verification, 0 ordered pairs" in done.stdout
    assert done.stdout.startswith("PASS")


def _zone(data, kind):
    return next(z for z in data["zones"] if z["kind"] == kind)


def _as_float(values, value):
    # an int written as the equal float compares equal to its derivation
    values[values.index(value)] = float(value)


def _float_field(owner, key):
    owner[key] = float(owner[key])


MALFORMED = {
    "n-float": lambda d: d.update(n=60.0),
    "n-string": lambda d: d.update(n="60"),
    "n-true": lambda d: d.update(n=True),
    "n-zero": lambda d: d.update(n=0),
    "n-negative": lambda d: d.update(n=-5),
    "eps-string": lambda d: d.update(eps="x"),
    "eps-null": lambda d: d.update(eps=None),
    "seed-float": lambda d: d.update(seed=1.5),
    "seed-string": lambda d: d.update(seed="0"),
    "seed-null": lambda d: d.update(seed=None),
    "chain-primes-int": lambda d: _zone(d, "chains").update(primes=5),
    "phi-float": lambda d: _as_float(_zone(d, "cover-free")["phi"], 3),
    "family-float": lambda d: _as_float(_zone(d, "cover-free")["family"][0], 11),
    "rank-float": lambda d: _as_float(_zone(d, "random-suitable")["ranks"][0], 0),
    "target_size-float": lambda d: _float_field(_zone(d, "random-suitable"), "target_size"),
    "retry_index-false": lambda d: _zone(d, "random-suitable").update(retry_index=False),
    "zone_seed-float": lambda d: _float_field(_zone(d, "random-suitable"), "zone_seed"),
    "h-float": lambda d: _float_field(_zone(d, "cover-free"), "h"),
    "capacity-float": lambda d: _float_field(_zone(d, "cover-free"), "capacity"),
    "lo-string": lambda d: _zone(d, "chains").update(lo="1.0"),
    "max_exponent-float": lambda d: _float_field(d, "max_exponent"),
    "dimension-float": lambda d: _float_field(d, "dimension"),
}


@pytest.fixture(scope="module")
def cert_1000(tmp_path_factory):
    path = tmp_path_factory.mktemp("cert") / "cert.json"
    assert main(["certify", "--n", "1000", "--seed", "0", "--out", str(path)]) == 0
    return json.loads(path.read_text())


@pytest.mark.parametrize("mode", [[], ["--sampled", "50"]], ids=["exhaustive", "sampled"])
@pytest.mark.parametrize("case", list(MALFORMED))
def test_recorded_value_of_wrong_type_is_a_usage_error(tmp_path, cert_1000, case, mode):
    # exit 1 means the certificate was checked and failed; a value of the
    # wrong JSON type is rejected at load instead, with no traceback
    data = json.loads(json.dumps(cert_1000))
    MALFORMED[case](data)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(data))
    done = _divdim("verify", "--cert", str(cert), *mode, timeout=30)
    assert done.returncode == 2, done.stderr
    assert any(line.startswith("error:") for line in done.stderr.splitlines())
    assert "Traceback" not in done.stderr


INPUT_ERRORS = {
    "bounds-n-not-ints": ["bounds", "--n", "1000,abc"],
    "primes-not-ints": ["exact-dim", "--divisibility", "10", "--primes", "2,x"],
    "family-not-json": ["coverfree", "verify", "--family", "{text}", "--r", "2"],
    "family-is-a-certificate": ["coverfree", "verify", "--family", "{cert}", "--r", "2"],
    "cert-is-a-directory": ["verify", "--cert", "{dir}"],
    "cert-not-text": ["verify", "--cert", "{binary}"],
    "edges-is-a-directory": ["exact-dim", "--edges", "{dir}"],
    "family-is-a-directory": ["coverfree", "verify", "--family", "{dir}", "--r", "2"],
    "verify-sampled-0": ["verify", "--cert", "{cert}", "--sampled", "0"],
    "coverfree-sampled-0": ["coverfree", "verify", "--family", "{family}", "--r", "2", "--sampled", "0"],
}


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    files = {name: root / f"{name}.json" for name in ("text", "binary", "cert", "family")}
    files["dir"] = root
    files["text"].write_text("not json\n")
    files["binary"].write_bytes(b"\xb0\xff\n")
    assert main(["certify", "--n", "60", "--out", str(files["cert"])]) == 0
    assert main(["coverfree", "build", "--q", "5", "--h", "1", "--json", str(files["family"])]) == 0
    return {name: str(path) for name, path in files.items()}


@pytest.mark.parametrize("case", list(INPUT_ERRORS))
def test_bad_input_is_a_usage_error(input_files, case):
    # exit 1 is kept for a check that ran and failed
    args = [arg.format(**input_files) for arg in INPUT_ERRORS[case]]
    done = _divdim(*args, timeout=30)
    assert done.returncode == 2, done.stderr
    assert "error: " in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_json_constant_is_a_usage_error(input_files, tmp_path, constant):
    # Python's json reads these, but they are not JSON: rejected at load
    # with exit 2, not verified and failed with exit 1
    text = Path(input_files["cert"]).read_text()
    assert '"eps":0.5,' in text
    cert = tmp_path / "cert.json"
    cert.write_text(text.replace('"eps":0.5,', f'"eps":{constant},'))
    done = _divdim("verify", "--cert", str(cert), timeout=30)
    assert done.returncode == 2, done.stderr
    assert done.stderr == (
        f"error: certificate is not valid JSON: {constant} is not a JSON value\n"
    )
