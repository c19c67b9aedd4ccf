import hashlib
import json
import math
import sys

import numpy as np
import pytest

from conftest import datasets_equal, edge_dataset, matrix, traced_peak
from threatbench.errors import ConfigError
from threatbench.linear import fit_logistic, predict_proba
from threatbench.synthgen import (
    EMAIL_SCHEMA,
    MAX_ROWS,
    USER_EVENT_SCHEMA,
    GeneratorConfig,
    _event_capacity,
    generate_email_corpus,
    generate_malware_corpus,
    generate_network_flows,
    generate_user_activity,
    save_events_jsonl,
)
from threatbench.tabular import Dataset, RngStream, round_half_up, save_dataset

# Nearest chi-square critical value for df=23 at alpha=0.01, frozen from the
# inverse CDF (regularized incomplete gamma).
CHI2_CRIT_DF23_P99 = 41.638398118858476


def per_event_user_activity(config: GeneratorConfig) -> Dataset:
    """The former per-event implementation of `generate_user_activity`, kept as
    the oracle of the whole-array one."""
    p = config.params("ueba")
    users, days = int(p["users"]), int(p["days"])
    if users < 1 or days < 1:
        raise ConfigError("users and days must both be >= 1")
    rng = RngStream(config.seed, "ueba")

    rp = rng.child("profiles")
    work_start = rp.integers(7, 11, size=users)
    work_len = rp.integers(8, 10, size=users)
    cmd_rate = rp.uniform(5.0, 15.0, size=users)

    activity_types = list(p["activity_types"])
    activity_mix = np.asarray(p["activity_mix"], dtype=float)
    activity_mix = activity_mix / activity_mix.sum()

    re = rng.child("events")
    records = []  # one dict of numpy scalars per user-day block
    for u in range(users):
        lo, hi = int(work_start[u]), int(work_start[u] + work_len[u] - 1)
        center, spread = (lo + hi) / 2.0, max(1.0, (hi - lo) / 3.0)
        for d in range(1, days + 1):
            m = max(1, int(re.poisson(p["events_per_day_mean"])))
            hours = np.clip(np.round(re.normal(center, spread, size=m)), lo, hi).astype(int)
            acts = re.choice(activity_types, size=m, p=activity_mix)
            failed = re.poisson(0.1, size=m)
            cmds = np.where(
                acts == "command", re.poisson(cmd_rate[u], size=m), re.poisson(1.0, size=m)
            )
            sens = ((acts == "file_access") & (re.random(m) < p["sensitive_file_rate"])).astype(int)
            admin = np.where(
                acts == "privilege_use",
                (re.random(m) < 0.5).astype(int),
                (re.random(m) < p["admin_action_rate"]).astype(int),
            )
            records.append(
                {
                    "user": u + 1,
                    "day": d,
                    "hour": hours,
                    "activity": acts,
                    "failed": failed.astype(float),
                    "cmds": cmds.astype(float),
                    "sens": sens,
                    "admin": admin,
                    "anom": np.zeros(m, dtype=int),
                    "pattern": [None] * m,
                }
            )

    total = sum(len(b["hour"]) for b in records)
    target = round_half_up(total * config.anomaly_rate)
    ri = rng.child("inject")
    order = ri.permutation(len(records))
    pattern_cycle = ["off_hour", "failed_spike", "sensitive_file"]
    injected = 0
    pat_i = 0
    for bi in order:
        if injected >= target:
            break
        block = records[bi]
        m = len(block["hour"])
        k = min(max(3, int(np.floor(p["anomalous_share_of_session"] * m + 0.5))), m, target - injected)
        hit = ri.choice(m, size=k, replace=False)
        for j in hit:
            pattern = pattern_cycle[pat_i % 3]
            pat_i += 1
            block["anom"][j] = 1
            block["pattern"][j] = pattern
            if pattern == "off_hour":
                block["hour"][j] = int(ri.integers(0, 6))
            elif pattern == "failed_spike":
                block["failed"][j] = float(ri.integers(5, 16))
                block["activity"][j] = "login"
            else:
                block["sens"][j] = 1
                block["activity"][j] = "file_access"
        injected += k

    # The per-session share can under-fill extreme rates; top up from any
    # remaining clean events so the positive count is exact.
    if injected < target:
        for bi in order:
            block = records[bi]
            for j in np.flatnonzero(block["anom"] == 0):
                if injected >= target:
                    break
                pattern = pattern_cycle[pat_i % 3]
                pat_i += 1
                block["anom"][j] = 1
                block["pattern"][j] = pattern
                if pattern == "off_hour":
                    block["hour"][j] = int(ri.integers(0, 6))
                elif pattern == "failed_spike":
                    block["failed"][j] = float(ri.integers(5, 16))
                    block["activity"][j] = "login"
                else:
                    block["sens"][j] = 1
                    block["activity"][j] = "file_access"
                injected += 1
            if injected >= target:
                break

    # Emit ordered by (user, day, hour, original position).
    cols = {name: [] for name, _ in USER_EVENT_SCHEMA}
    patterns = []
    for block in records:
        m = len(block["hour"])
        emit = sorted(range(m), key=lambda j: (block["hour"][j], j))
        for j in emit:
            cols["user_id"].append(float(block["user"]))
            cols["day"].append(float(block["day"]))
            cols["hour"].append(float(block["hour"][j]))
            cols["weekday"].append(float((block["day"] - 1) % 7))
            cols["activity_type"].append(str(block["activity"][j]))
            cols["failed_login_attempts"].append(float(block["failed"][j]))
            cols["command_count"].append(float(block["cmds"][j]))
            cols["accessed_sensitive_file"].append(int(block["sens"][j]))
            cols["is_admin_action"].append(int(block["admin"][j]))
            cols["anomaly_label"].append(int(block["anom"][j]))
            patterns.append(block["pattern"][j])

    meta = {"injection_pattern": {i: t for i, t in enumerate(patterns) if t is not None}}
    return Dataset(USER_EVENT_SCHEMA, cols, meta=meta)



class TestNetwork:
    def test_exact_anomaly_count_large(self):
        ds = generate_network_flows(GeneratorConfig(n=20000, anomaly_rate=0.05, seed=3))
        assert int(np.sum(ds.column("anomaly_label"))) == 1000

    def test_protocol_ordering(self):
        ds = generate_network_flows(GeneratorConfig(n=5000, anomaly_rate=0.05, seed=42))
        protos = ds.column("protocol")
        counts = {p: protos.count(p) for p in ("TCP", "UDP", "ICMP")}
        assert counts["TCP"] > counts["UDP"] > counts["ICMP"]

    def test_determinism_byte_identical(self, tmp_path):
        cfg = GeneratorConfig(n=500, anomaly_rate=0.05, seed=11)
        a, b = generate_network_flows(cfg), generate_network_flows(cfg)
        assert datasets_equal(a, b)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset(a, pa)
        save_dataset(b, pb)
        assert hashlib.sha256(pa.read_bytes()).digest() == hashlib.sha256(pb.read_bytes()).digest()

    def test_injected_patterns_recorded(self):
        ds = generate_network_flows(GeneratorConfig(n=600, anomaly_rate=0.1, seed=5))
        tags = ds.meta["injection_pattern"]
        labels = np.asarray(ds.column("anomaly_label"))
        assert set(tags) == set(np.flatnonzero(labels == 1).tolist())
        assert {t for t in tags.values()} == {"port_scan", "half_open", "burst"}
        # port scans fan one source socket across destinations with tiny payloads
        scan_rows = [i for i, t in tags.items() if t == "port_scan"]
        src = np.asarray(ds.column("src_port"))[scan_rows]
        assert len(set(src.tolist())) == 1
        assert np.asarray(ds.column("bytes"))[scan_rows].max() <= 120
        # half-open rows never complete a handshake
        half_rows = [i for i, t in tags.items() if t == "half_open"]
        assert np.asarray(ds.column("packet_count"))[half_rows].max() <= 2
        assert np.asarray(ds.column("duration"))[half_rows].max() < 0.01

    def test_range_safety_random_configs(self, np_rng):
        for _ in range(5):
            cfg = GeneratorConfig(
                n=int(np_rng.integers(100, 800)),
                anomaly_rate=float(np_rng.uniform(0.01, 0.49)),
                seed=int(np_rng.integers(1e6)),
            )
            ds = generate_network_flows(cfg)
            assert int(np.sum(ds.column("anomaly_label"))) == int(np.floor(cfg.n * cfg.anomaly_rate + 0.5))
            for col, lo, hi in (("src_port", 0, 65535), ("dst_port", 0, 65535)):
                arr = np.asarray(ds.column(col))
                assert arr.min() >= lo and arr.max() <= hi
            assert np.asarray(ds.column("bytes")).min() >= 0
            assert np.asarray(ds.column("duration")).min() >= 0
            assert np.asarray(ds.column("packet_count")).min() >= 1

    def test_preconditions(self):
        with pytest.raises(ConfigError, match="n must be"):
            generate_network_flows(GeneratorConfig(n=50, anomaly_rate=0.1))
        with pytest.raises(ConfigError, match="anomaly_rate"):
            generate_network_flows(GeneratorConfig(n=500, anomaly_rate=0.6))
        with pytest.raises(ConfigError, match="override"):
            generate_network_flows(GeneratorConfig(n=500, anomaly_rate=0.1, overrides={"nope": 1}))


class TestMalware:
    def test_class_imbalance_and_exact_count(self):
        ds = generate_malware_corpus(GeneratorConfig(n=10000, anomaly_rate=0.1, seed=1))
        labels = np.asarray(ds.column("label"))
        assert labels.sum() == 1000
        assert (labels == 0).sum() > (labels == 1).sum()

    def test_unsigned_majority(self):
        ds = generate_malware_corpus(GeneratorConfig(n=3000, anomaly_rate=0.1, seed=42))
        sig = np.asarray(ds.column("has_digital_signature"))
        assert (sig == 0).sum() > (sig == 1).sum()

    def test_packed_minority_and_ranges(self):
        ds = generate_malware_corpus(GeneratorConfig(n=3000, anomaly_rate=0.1, seed=9))
        assert np.mean(np.asarray(ds.column("is_packed"))) < 0.5
        ent = np.asarray(ds.column("entropy"))
        assert ent.min() >= 0.0 and ent.max() <= 8.0
        for col in ("opcode_NOP_ratio", "opcode_JMP_ratio"):
            arr = np.asarray(ds.column(col))
            assert arr.min() >= 0.0 and arr.max() <= 1.0
        assert np.asarray(ds.column("section_count")).min() >= 1

    def test_malicious_shift(self):
        ds = generate_malware_corpus(GeneratorConfig(n=4000, anomaly_rate=0.2, seed=2))
        labels = np.asarray(ds.column("label"))
        ent = np.asarray(ds.column("entropy"))
        packed = np.asarray(ds.column("is_packed"))
        assert ent[labels == 1].mean() > ent[labels == 0].mean()
        assert packed[labels == 1].mean() > packed[labels == 0].mean()


class TestEmail:
    def test_legit_spf_majority_passes(self):
        ds = generate_email_corpus(GeneratorConfig(n=4000, anomaly_rate=0.2, seed=42))
        labels = np.asarray(ds.column("label"))
        spf = np.asarray(ds.column("has_spf_fail"))[labels == 0]
        assert (spf == 0).sum() > (spf == 1).sum()

    def test_hour_uniformity_chi_square(self):
        # 24 bins, df=23; the statistic must not reject uniformity at alpha=0.01.
        ds = generate_email_corpus(GeneratorConfig(n=6000, anomaly_rate=0.2, seed=42))
        hours = np.asarray(ds.column("hour_sent")).astype(int)
        counts = np.bincount(hours, minlength=24)
        expected = len(hours) / 24.0
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < CHI2_CRIT_DF23_P99

    def test_zero_noise_linearly_separable(self):
        ds = generate_email_corpus(
            GeneratorConfig(n=1200, anomaly_rate=0.2, seed=7, overrides={"noise_fraction": 0.0})
        )
        y = np.asarray(ds.column("label"))
        X = matrix(ds, ["has_spf_fail", "has_login_form", "sender_reputation_score"])
        model = fit_logistic(X, y, epochs=3000, step_size=1.0)
        acc = np.mean((predict_proba(model, X) >= 0.5).astype(int) == y)
        assert acc == 1.0

    def test_crossed_rows_exist_at_default_noise(self):
        ds = generate_email_corpus(GeneratorConfig(n=4000, anomaly_rate=0.2, seed=1))
        labels = np.asarray(ds.column("label"))
        spf = np.asarray(ds.column("has_spf_fail"))
        words = np.asarray(ds.column("num_suspicious_words"))
        # some legit rows look suspicious, some phishing rows look clean
        assert ((labels == 0) & (spf == 1) & (words >= 1)).any()
        assert ((labels == 1) & (spf == 0) & (words == 0)).any()

    def test_exact_phish_count_and_hours(self):
        ds = generate_email_corpus(GeneratorConfig(n=1000, anomaly_rate=0.3, seed=4))
        assert int(np.sum(ds.column("label"))) == 300
        hours = np.asarray(ds.column("hour_sent"))
        assert hours.min() >= 0 and hours.max() <= 23 and np.all(hours == np.round(hours))
        rep = np.asarray(ds.column("sender_reputation_score"))
        assert rep.min() >= 0.0 and rep.max() <= 1.0


class TestUserActivity:
    CFG = dict(anomaly_rate=0.03, seed=13)

    def test_exact_event_anomaly_count(self):
        ds = generate_user_activity(GeneratorConfig(**self.CFG, overrides={"users": 10, "days": 6}))
        labels = np.asarray(ds.column("anomaly_label"))
        assert labels.sum() == int(np.floor(ds.n * 0.03 + 0.5))

    def test_sensitive_access_rare(self):
        ds = generate_user_activity(GeneratorConfig(anomaly_rate=0.02, seed=42, overrides={"users": 20, "days": 10}))
        assert np.mean(np.asarray(ds.column("accessed_sensitive_file"))) < 0.1

    def test_off_hour_injection_labeled(self):
        ds = generate_user_activity(GeneratorConfig(**self.CFG, overrides={"users": 8, "days": 5}))
        tags = ds.meta["injection_pattern"]
        hours = np.asarray(ds.column("hour"))
        labels = np.asarray(ds.column("anomaly_label"))
        off = [i for i, t in tags.items() if t == "off_hour"]
        assert off, "expected at least one off-hour injection"
        assert (labels[off] == 1).all()
        assert hours[off].max() <= 5  # work windows never start before 7
        spikes = [i for i, t in tags.items() if t == "failed_spike"]
        assert np.asarray(ds.column("failed_login_attempts"))[spikes].min() >= 5

    def test_same_seed_identical(self):
        a = generate_user_activity(GeneratorConfig(**self.CFG, overrides={"users": 5, "days": 4}))
        b = generate_user_activity(GeneratorConfig(**self.CFG, overrides={"users": 5, "days": 4}))
        assert datasets_equal(a, b)

    def test_emission_order_and_weekday_consistency(self):
        ds = generate_user_activity(GeneratorConfig(**self.CFG, overrides={"users": 6, "days": 9}))
        u = np.asarray(ds.column("user_id"))
        d = np.asarray(ds.column("day"))
        h = np.asarray(ds.column("hour"))
        w = np.asarray(ds.column("weekday"))
        key = np.stack([u, d, h])
        for i in range(1, ds.n):
            assert tuple(key[:, i - 1].tolist()) <= tuple(key[:, i].tolist())
        assert np.array_equal(w, (d - 1) % 7)

    def test_events_jsonl_round(self, tmp_path):
        ds = generate_user_activity(GeneratorConfig(**self.CFG, overrides={"users": 3, "days": 2}))
        path = tmp_path / "events.jsonl"
        save_events_jsonl(ds, path)
        lines = path.read_text().splitlines()
        assert len(lines) == ds.n
        first = json.loads(lines[0])
        assert set(first) == {name for name, _ in ds.columns}

    def test_block_writer_matches_per_cell_reference(self, tmp_path):
        ds = edge_dataset()
        kinds = dict(ds.columns)
        path = tmp_path / "events.jsonl"
        save_events_jsonl(ds, path)
        ref = []
        for i in range(ds.n):
            rec = {}
            for name in ds.column_names:
                v = ds.column(name)[i]
                kind = kinds[name]
                rec[name] = str(v) if kind == "categorical" else (float(v) if kind == "numeric" else int(v))
            ref.append(json.dumps(rec, sort_keys=True) + "\n")
        assert path.read_bytes() == "".join(ref).encode("utf-8")

    def test_zero_users_rejected(self):
        with pytest.raises(ConfigError, match="^generator.overrides.users must be >= 1, got 0$"):
            generate_user_activity(GeneratorConfig(anomaly_rate=0.02, overrides={"users": 0, "days": 3}))

    def test_extreme_rate_still_exact(self):
        ds = generate_user_activity(
            GeneratorConfig(anomaly_rate=0.45, seed=3, overrides={"users": 4, "days": 3})
        )
        labels = np.asarray(ds.column("anomaly_label"))
        assert labels.sum() == int(np.floor(ds.n * 0.45 + 0.5))

    @pytest.mark.parametrize(
        "config",
        [
            GeneratorConfig(n=0, anomaly_rate=0.02, seed=42),  # the pipeline default
            GeneratorConfig(anomaly_rate=0.45, seed=3, overrides={"users": 4, "days": 3}),
            # A share of 0.1 per block under-fills 0.45, so the top-up pass runs.
            GeneratorConfig(anomaly_rate=0.45, seed=3, overrides={"users": 4, "days": 3, "anomalous_share_of_session": 0.1}),
            GeneratorConfig(anomaly_rate=0.3, seed=5, overrides={"users": 1, "days": 1}),
            GeneratorConfig(anomaly_rate=0.2, seed=6, overrides={"users": 3, "days": 4, "events_per_day_mean": 0.5}),
            GeneratorConfig(anomaly_rate=0.01, seed=7, overrides={"users": 2, "days": 2, "events_per_day_mean": 300.0}),
        ],
        ids=["default", "extreme-rate", "top-up", "one-user-day", "one-event-days", "hour-ties"],
    )
    def test_matches_per_event_oracle(self, config):
        got, want = generate_user_activity(config), per_event_user_activity(config)
        assert got.columns == want.columns and got.n == want.n
        for name, kind in got.columns:
            a, b = got.column(name), want.column(name)
            if kind == "categorical":
                assert a == b and {type(v) for v in a} <= {str}
            else:
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert got.meta["injection_pattern"] == want.meta["injection_pattern"]
        assert {type(i) for i in got.meta["injection_pattern"]} <= {int}
        hours = np.asarray(got.column("hour"))
        assert (hours[1:] == hours[:-1]).any()  # ties in hour keep their draw order

    @pytest.mark.parametrize(
        "config, grows, digests",
        [
            (GeneratorConfig(anomaly_rate=0.05, seed=42, overrides={"users": 3, "days": 4}), False,
             ["9e30bb02ca75697a7d946350e772c881bdd494d2a99af47abea5af004906b91f",
              "68645f13733a56156ea798c151a27e4f656d8aa51add5a5a0888f1b819e76cb8"]),
            (GeneratorConfig(anomaly_rate=0.1, seed=3, overrides={"users": 5, "days": 7, "events_per_day_mean": 2.0}), True,
             ["76ce933f788a6b08a55daebc59b9ba2ce07657bae8c378a94678aaddf16cfe9e",
              "cda11520657e3465d13c911293fc47a83b625421a5a85645cd44e92e027275f2"]),
        ],
        ids=["fits", "grows"],
    )
    def test_saved_bytes_pinned(self, config, grows, digests, tmp_path):
        """The sha256 of the saved CSV and JSONL, taken from the generator that
        concatenated per-block arrays. The second config draws more events than
        `_event_capacity` starts the event columns at, so they grow."""
        ds = generate_user_activity(config)
        p = config.params("ueba")
        assert (ds.n > _event_capacity(p["users"], p["days"], p["events_per_day_mean"])) == grows
        save_dataset(ds, tmp_path / "ueba.csv")
        save_events_jsonl(ds, tmp_path / "events.jsonl")
        got = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("ueba.csv", "events.jsonl")]
        assert got == digests

    def test_peak_memory_near_the_returned_columns(self):
        """The traced peak stays below 1.75x the bytes of the returned columns
        (the activity names are shared strings, so that list counts its own
        size). Holding every block's draws beside their concatenation read 2.0x."""
        config = GeneratorConfig(anomaly_rate=0.02, seed=42, overrides={"users": 20, "days": 30})
        ds = generate_user_activity(config)
        columns = [ds.column(name) for name in ds.column_names]
        size = sum(c.nbytes if isinstance(c, np.ndarray) else sys.getsizeof(c) for c in columns)
        del ds, columns
        assert traced_peak(lambda: generate_user_activity(config)) < 1.75 * size

    def test_injected_activity_names_are_not_truncated(self):
        p = {"users": 3, "days": 2, "activity_types": ["ab", "cd"], "activity_mix": [0.5, 0.5]}
        ds = generate_user_activity(GeneratorConfig(anomaly_rate=0.05, seed=42, overrides=p))
        acts = ds.column("activity_type")
        tags = ds.meta["injection_pattern"]
        assert {acts[i] for i, t in tags.items() if t == "failed_spike"} == {"login"}
        assert {acts[i] for i, t in tags.items() if t == "sensitive_file"} == {"file_access"}
        assert set(acts) == {"ab", "cd", "login", "file_access"}


class TestRunSizeBound:
    """`GeneratorConfig.params` refuses, before anything is drawn, a run larger
    than MAX_ROWS rows or expected events."""

    @pytest.mark.parametrize("domain, config", [
        ("malware", GeneratorConfig(n=100_000)),
        ("intrusion", GeneratorConfig(n=80_000)),
        ("ueba", GeneratorConfig(overrides={"users": 1000})),
    ], ids=["malware", "intrusion", "ueba"])
    def test_ten_times_the_default_size_validates(self, domain, config):
        assert config.params(domain)

    @pytest.mark.parametrize("domain", ["intrusion", "malware", "phishing"])
    def test_tabular_n_bound_is_inclusive(self, domain):
        assert GeneratorConfig(n=MAX_ROWS).params(domain)
        with pytest.raises(ConfigError, match=f"generator.n must be <= {MAX_ROWS}, got {MAX_ROWS + 1}$"):
            GeneratorConfig(n=MAX_ROWS + 1).params(domain)

    def test_ueba_bound_is_inclusive_and_counts_a_low_mean_as_one(self):
        side = 1 << 12  # side x side user-days is MAX_ROWS
        for mean in (1.0, 0.25, 0.0):
            assert GeneratorConfig(n=MAX_ROWS + 1, overrides={"users": side, "days": side,
                                                              "events_per_day_mean": mean}).params("ueba")
        for over in ({"days": side + 1, "events_per_day_mean": 0.25}, {"days": side, "events_per_day_mean": 1.5}):
            with pytest.raises(ConfigError, match="users x days x max\\(1, events_per_day_mean\\) must be <="):
                GeneratorConfig(overrides={"users": side, **over}).params("ueba")

    def test_event_capacity_is_capped_at_max_rows(self):
        assert _event_capacity(10, 6, 4.0) == int(60 * (4.0 + math.exp(-4.0)))
        assert _event_capacity(1 << 12, 1 << 12, 1.0) == MAX_ROWS


def test_schema_matches_column_order():
    ds = generate_email_corpus(GeneratorConfig(n=150, anomaly_rate=0.2, seed=0))
    assert ds.columns == [(n, k) for n, k in EMAIL_SCHEMA]


@pytest.mark.parametrize("generate, config, patterns", [
    (generate_network_flows, GeneratorConfig(n=600, anomaly_rate=0.1, seed=5), {"port_scan", "half_open", "burst"}),
    (generate_malware_corpus, GeneratorConfig(n=600, anomaly_rate=0.1, seed=5), {"malicious"}),
    (generate_email_corpus, GeneratorConfig(n=600, anomaly_rate=0.1, seed=5), {"phishing"}),
    (generate_user_activity, GeneratorConfig(anomaly_rate=0.1, seed=5, overrides={"users": 5, "days": 5}),
     {"off_hour", "failed_spike", "sensitive_file"}),
], ids=["intrusion", "malware", "phishing", "ueba"])
def test_tags_are_the_labels(generate, config, patterns):
    """A row carries an injection tag exactly when its label is 1, and the
    tags are the domain's injection patterns."""
    ds = generate(config)
    tags = ds.meta["injection_pattern"]
    assert list(tags) == np.flatnonzero(ds.column(ds.label_column()) == 1).tolist()
    assert set(tags.values()) == patterns
