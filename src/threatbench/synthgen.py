"""Seeded synthetic data generators for the four threat domains.

Each generator is a pure function of its GeneratorConfig: same config, same
table, byte-identical when saved. Labeled-positive counts are exact
(round(n * anomaly_rate)), not Bernoulli draws, so downstream count assertions
are stable. Default distribution parameters live in per-domain dicts below and
can be overridden per key through GeneratorConfig.overrides; the full table is
documented in the README.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ConfigError, DataError
from .tabular import WRITE_BLOCK, Dataset, RngStream

NETWORK_SCHEMA = [
    ("src_port", "numeric"),
    ("dst_port", "numeric"),
    ("protocol", "categorical"),
    ("bytes", "numeric"),
    ("duration", "numeric"),
    ("packet_count", "numeric"),
    ("is_internal", "binary"),
    ("anomaly_label", "label"),
]

MALWARE_SCHEMA = [
    ("file_size", "numeric"),
    ("entropy", "numeric"),
    ("num_imports", "numeric"),
    ("num_strings", "numeric"),
    ("opcode_NOP_ratio", "numeric"),
    ("opcode_JMP_ratio", "numeric"),
    ("has_digital_signature", "binary"),
    ("section_count", "numeric"),
    ("is_packed", "binary"),
    ("packer_entropy_ratio", "numeric"),
    ("file_type", "categorical"),
    ("label", "label"),
]

EMAIL_SCHEMA = [
    ("has_html", "binary"),
    ("num_links", "numeric"),
    ("num_domains", "numeric"),
    ("has_spf_fail", "binary"),
    ("is_from_internal", "binary"),
    ("sender_reputation_score", "numeric"),
    ("num_suspicious_words", "numeric"),
    ("has_login_form", "binary"),
    ("hour_sent", "numeric"),
    ("attachment_type", "categorical"),
    ("label", "label"),
]

USER_EVENT_SCHEMA = [
    ("user_id", "numeric"),
    ("day", "numeric"),
    ("hour", "numeric"),
    ("weekday", "numeric"),
    ("activity_type", "categorical"),
    ("failed_login_attempts", "numeric"),
    ("command_count", "numeric"),
    ("accessed_sensitive_file", "binary"),
    ("is_admin_action", "binary"),
    ("anomaly_label", "label"),
]

SCHEMAS = {
    "intrusion": NETWORK_SCHEMA,
    "malware": MALWARE_SCHEMA,
    "phishing": EMAIL_SCHEMA,
    "ueba": USER_EVENT_SCHEMA,
}

# Service ports clean traffic clusters on, most common first.
SERVICE_PORTS = np.array([443, 80, 53, 22, 25, 3389, 8080, 110, 143, 21])
SERVICE_PORT_WEIGHTS = np.array([0.30, 0.28, 0.12, 0.08, 0.06, 0.05, 0.04, 0.03, 0.02, 0.02])

NETWORK_DEFAULTS = {
    "protocol_mix": {"TCP": 0.70, "UDP": 0.25, "ICMP": 0.05},
    "bytes_log_mean": 8.0,
    "bytes_log_sigma": 1.5,
    "duration_log_mean": 0.0,
    "duration_log_sigma": 1.0,
    "packet_mean": 40.0,
    "packet_std": 15.0,
    "internal_rate": 0.8,
}

MALWARE_DEFAULTS = {
    "benign_entropy_mean": 5.0,
    "malicious_entropy_mean": 7.2,
    "entropy_std": 0.6,
    "benign_signature_rate": 0.45,
    "malicious_signature_rate": 0.05,
    "benign_packed_rate": 0.05,
    "malicious_packed_rate": 0.70,
    "file_types": ["exe", "dll", "sys", "docm", "js"],
    "benign_file_type_mix": [0.55, 0.30, 0.10, 0.03, 0.02],
    "malicious_file_type_mix": [0.50, 0.15, 0.05, 0.15, 0.15],
}

EMAIL_DEFAULTS = {
    "noise_fraction": 0.02,
    "legit_html_rate": 0.50,
    "phish_html_rate": 0.95,
    "legit_links_mean": 1.0,
    "phish_links_mean": 6.0,
    "legit_spf_fail_rate": 0.05,
    "phish_spf_fail_rate": 0.70,
    "legit_internal_rate": 0.60,
    "phish_internal_rate": 0.05,
    "legit_suspicious_words_mean": 0.2,
    "phish_suspicious_words_mean": 4.0,
    "legit_login_form_rate": 0.02,
    "phish_login_form_rate": 0.60,
    "attachment_types": ["none", "pdf", "docx", "zip", "html"],
    "legit_attachment_mix": [0.60, 0.20, 0.15, 0.03, 0.02],
    "phish_attachment_mix": [0.35, 0.10, 0.10, 0.25, 0.20],
}

UEBA_DEFAULTS = {
    "users": 100,
    "days": 30,
    "events_per_day_mean": 40.0,
    "activity_types": ["login", "file_access", "command", "privilege_use"],
    "activity_mix": [0.20, 0.45, 0.30, 0.05],
    "sensitive_file_rate": 0.03,
    "admin_action_rate": 0.02,
    "anomalous_share_of_session": 0.5,
}


def _weights(mix) -> bool:
    """Whether `mix` can be drawn from: weights >= 0 with a positive finite sum."""
    w = np.asarray(list(mix), dtype=float)
    with np.errstate(over="ignore"):
        return bool((w >= 0).all() and 0 < w.sum() < np.inf)


def _probabilities(mix) -> np.ndarray:
    w = np.asarray(mix, dtype=float)
    return w / w.sum()


# The legal range of a distribution parameter, as (predicate, text), where a
# sampler needs one. A predicate sees only a value of its default's type.
PARAM_RANGES = {
    "protocol_mix": (lambda v: _weights(v.values()), "an object of weights >= 0 with a positive finite sum"),
    **dict.fromkeys(("bytes_log_sigma", "duration_log_sigma", "packet_std", "entropy_std"),
                    (lambda v: v < math.inf and math.copysign(1.0, v) > 0, "a finite number >= 0, not -0.0")),
    **dict.fromkeys(("benign_file_type_mix", "malicious_file_type_mix", "legit_attachment_mix", "phish_attachment_mix",
                     "activity_mix"), (_weights, "weights >= 0 with a positive finite sum")),
    **dict.fromkeys(("legit_links_mean", "phish_links_mean", "legit_suspicious_words_mean", "phish_suspicious_words_mean",
                     "events_per_day_mean"), (lambda v: 0 <= v <= 1e18, "a number in [0, 1e18]")),
    **dict.fromkeys(("noise_fraction", "anomalous_share_of_session"), (lambda v: 0 <= v <= 1, "a number in [0, 1]")),
    **dict.fromkeys(("users", "days"), (lambda v: v >= 1, ">= 1")),
}

# Each list of category names and the mixes that weight it entry by entry.
MIXES = {
    "file_types": ("benign_file_type_mix", "malicious_file_type_mix"),
    "attachment_types": ("legit_attachment_mix", "phish_attachment_mix"),
    "activity_types": ("activity_mix",),
}


@dataclass
class GeneratorConfig:
    """Size, imbalance, seed and distribution overrides for one generator.

    For the three row-wise domains `n` is the row count; for user activity the
    event count is driven by users x days x Poisson(events_per_day_mean) and
    `n` is ignored. Anomaly rate must sit in (0, 0.5): anomalies are the
    minority by construction.
    """

    n: int = 10_000
    anomaly_rate: float = 0.1
    seed: int = 42
    overrides: dict = field(default_factory=dict)

    def params(self, domain: str) -> dict:
        """`domain`'s distribution parameters: `GENERATOR_PARAMS[domain]` with
        the overrides laid over them, once `n` and `anomaly_rate` are checked
        against `GENERATOR_MIN_N[domain]` and (0, 0.5). An override must name
        a default, have its type (see `like`) and lie in its `PARAM_RANGES`
        range, and a mix must weight each entry of its `MIXES` category list."""
        min_n = GENERATOR_MIN_N[domain]
        if min_n is not None and self.n < min_n:
            raise ConfigError(f"generator.n must be >= {min_n}, got {self.n}")
        if not 0.0 < self.anomaly_rate < 0.5:
            raise ConfigError(f"generator.anomaly_rate must be in (0, 0.5), got {self.anomaly_rate}")
        merged = dict(GENERATOR_PARAMS[domain])
        for key, value in self.overrides.items():
            if key not in merged:
                raise ConfigError(f"unknown config key generator.overrides.{key}")
            if not like(value, merged[key]):
                raise ConfigError(f"generator.overrides.{key} must have the type of {merged[key]!r}, got {value!r}")
            merged[key] = value
        for names, mixes in MIXES.items():
            for mix in mixes if names in merged else ():
                if not 0 < len(merged[names]) == len(merged[mix]):
                    raise ConfigError(f"generator.overrides.{mix} must hold one weight per entry of a non-empty "
                                      f"generator.overrides.{names}, got {merged[mix]!r}")
        for key, value in merged.items():
            test, text = PARAM_RANGES.get(key, (None, None))
            if test and not test(value):
                raise ConfigError(f"generator.overrides.{key} must be {text}, got {value!r}")
        return merged


def like(value, default) -> bool:
    """Whether `value` has the type of `default`: a bool for a bool, any number
    a float can hold for a float, an int for an int, a str for a str, and lists
    and dicts of such values."""
    if isinstance(default, dict):
        return isinstance(value, dict) and like(list(value), list(default)) and like(
            list(value.values()), list(default.values()))
    if isinstance(default, list):
        return isinstance(value, list) and all(like(v, default[0]) for v in value)
    if isinstance(default, bool) or isinstance(value, bool):
        return type(value) is type(default)
    if isinstance(default, float) and isinstance(value, int):
        return abs(value) <= sys.float_info.max
    return isinstance(value, type(default))


def _exact_positive_count(n: int, rate: float) -> int:
    return int(np.floor(n * rate + 0.5))


def _interleave(rng: RngStream, blocks: list[dict], columns, patterns: list[str | None]):
    """Concatenate row blocks and shuffle them into one Dataset.

    `patterns` holds one injection tag per row (None for clean rows); the tags
    survive the shuffle in meta["injection_pattern"] for diagnostics only.
    """
    names = [n for n, _ in columns]
    merged = {n: np.concatenate([np.asarray(b[n]) for b in blocks]) for n in names}
    total = len(merged[names[0]])
    order = rng.permutation(total)
    data = {}
    for name, kind in columns:
        col = merged[name][order]
        data[name] = [str(v) for v in col] if kind == "categorical" else col
    tags = [patterns[i] for i in order]
    meta = {"injection_pattern": {i: t for i, t in enumerate(tags) if t is not None}}
    return Dataset(columns, data, meta=meta)


# -- network flows -------------------------------------------------------------


def generate_network_flows(config: GeneratorConfig) -> Dataset:
    """Enterprise-style flow records with three injected anomaly patterns.

    Clean traffic: TCP-heavy protocol mix, scattered source ports, service-port
    destinations, right-skewed bytes/duration, bell-shaped packet counts.
    Anomalies (exactly round(n*rate) rows) cycle through port scans (one source
    fanning across destinations with tiny payloads), half-open connections
    (near-zero duration, <=2 packets) and traffic bursts (bytes and packets far
    beyond the clean tails).
    """
    p = config.params("intrusion")
    rng = RngStream(config.seed, "network")
    n_anom = _exact_positive_count(config.n, config.anomaly_rate)
    n_clean = config.n - n_anom

    r = rng.child("clean")
    protos = list(p["protocol_mix"])
    clean = {
        "src_port": r.integers(1024, 65536, size=n_clean).astype(float),
        "dst_port": np.where(
            r.random(n_clean) < 0.98,
            r.choice(SERVICE_PORTS, size=n_clean, p=SERVICE_PORT_WEIGHTS / SERVICE_PORT_WEIGHTS.sum()),
            r.integers(1, 65536, size=n_clean),
        ).astype(float),
        "protocol": r.choice(protos, size=n_clean, p=_probabilities(list(p["protocol_mix"].values()))),
        "bytes": np.round(r.lognormal(p["bytes_log_mean"], p["bytes_log_sigma"], size=n_clean)),
        "duration": r.lognormal(p["duration_log_mean"], p["duration_log_sigma"], size=n_clean),
        "packet_count": np.maximum(1, np.round(r.normal(p["packet_mean"], p["packet_std"], size=n_clean))),
        "is_internal": (r.random(n_clean) < p["internal_rate"]).astype(int),
        "anomaly_label": np.zeros(n_clean, dtype=int),
    }

    counts = [n_anom // 3 + (1 if i < n_anom % 3 else 0) for i in range(3)]
    ra = rng.child("anomalies")
    scan_src = float(ra.integers(1024, 65536))  # the single scanning socket
    n_scan, n_half, n_burst = counts
    scan = {
        "src_port": np.full(n_scan, scan_src),
        "dst_port": ra.integers(1, 65536, size=n_scan).astype(float),
        "protocol": np.array(["TCP"] * n_scan),
        "bytes": ra.integers(40, 121, size=n_scan).astype(float),
        "duration": ra.uniform(0.0, 0.05, size=n_scan),
        "packet_count": ra.integers(1, 4, size=n_scan).astype(float),
        "is_internal": np.ones(n_scan, dtype=int),
        "anomaly_label": np.ones(n_scan, dtype=int),
    }
    # Inbound SYN probes: a single packet, never completed, external origin.
    half = {
        "src_port": ra.integers(1024, 65536, size=n_half).astype(float),
        "dst_port": ra.choice(SERVICE_PORTS, size=n_half).astype(float),
        "protocol": np.array(["TCP"] * n_half),
        "bytes": ra.integers(40, 61, size=n_half).astype(float),
        "duration": ra.uniform(0.0, 0.005, size=n_half),
        "packet_count": np.ones(n_half),
        "is_internal": np.zeros(n_half, dtype=int),
        "anomaly_label": np.ones(n_half, dtype=int),
    }
    burst = {
        "src_port": ra.integers(1024, 65536, size=n_burst).astype(float),
        "dst_port": ra.choice(SERVICE_PORTS, size=n_burst).astype(float),
        "protocol": np.array(["TCP"] * n_burst),
        "bytes": np.round(ra.lognormal(14.0, 0.5, size=n_burst)),
        "duration": ra.lognormal(2.0, 0.5, size=n_burst),
        "packet_count": np.maximum(1, np.round(ra.normal(400.0, 80.0, size=n_burst))),
        "is_internal": (ra.random(n_burst) < 0.5).astype(int),
        "anomaly_label": np.ones(n_burst, dtype=int),
    }
    patterns = [None] * n_clean + ["port_scan"] * n_scan + ["half_open"] * n_half + ["burst"] * n_burst
    return _interleave(rng.child("shuffle"), [clean, scan, half, burst], NETWORK_SCHEMA, patterns)


# -- malware file metadata ------------------------------------------------------


def generate_malware_corpus(config: GeneratorConfig) -> Dataset:
    """File metadata table: benign majority, packed/high-entropy malicious minority."""
    p = config.params("malware")
    rng = RngStream(config.seed, "malware")
    n_mal = _exact_positive_count(config.n, config.anomaly_rate)
    n_ben = config.n - n_mal

    rb = rng.child("benign")
    benign = {
        "file_size": np.round(rb.lognormal(12.0, 1.0, size=n_ben)),
        "entropy": np.clip(rb.normal(p["benign_entropy_mean"], p["entropy_std"], size=n_ben), 0.0, 8.0),
        "num_imports": np.maximum(0, np.round(rb.normal(60.0, 20.0, size=n_ben))),
        "num_strings": np.round(rb.lognormal(6.0, 0.8, size=n_ben)),
        "opcode_NOP_ratio": np.clip(rb.normal(0.05, 0.015, size=n_ben), 0.0, 1.0),
        "opcode_JMP_ratio": np.clip(rb.normal(0.12, 0.03, size=n_ben), 0.0, 1.0),
        "has_digital_signature": (rb.random(n_ben) < p["benign_signature_rate"]).astype(int),
        "section_count": rb.choice([3, 4, 5, 6], size=n_ben, p=[0.30, 0.35, 0.25, 0.10]).astype(float),
        "is_packed": (rb.random(n_ben) < p["benign_packed_rate"]).astype(int),
        "packer_entropy_ratio": rb.lognormal(-1.5, 0.5, size=n_ben),
        "file_type": rb.choice(p["file_types"], size=n_ben, p=_probabilities(p["benign_file_type_mix"])),
        "label": np.zeros(n_ben, dtype=int),
    }

    rm = rng.child("malicious")
    # Opcode ratios pushed toward either extreme: half near-zero NOPs, half inflated.
    nop_low = np.clip(rm.normal(0.002, 0.002, size=n_mal), 0.0, 1.0)
    nop_high = np.clip(rm.normal(0.22, 0.06, size=n_mal), 0.0, 1.0)
    malicious = {
        "file_size": np.round(rm.lognormal(11.3, 1.3, size=n_mal)),
        "entropy": np.clip(rm.normal(p["malicious_entropy_mean"], p["entropy_std"], size=n_mal), 0.0, 8.0),
        "num_imports": np.maximum(0, np.round(rm.normal(10.0, 6.0, size=n_mal))),
        "num_strings": np.round(rm.lognormal(3.5, 0.8, size=n_mal)),
        "opcode_NOP_ratio": np.where(rm.random(n_mal) < 0.5, nop_low, nop_high),
        "opcode_JMP_ratio": np.clip(rm.normal(0.30, 0.07, size=n_mal), 0.0, 1.0),
        "has_digital_signature": (rm.random(n_mal) < p["malicious_signature_rate"]).astype(int),
        "section_count": np.maximum(1, 1 + rm.poisson(7.0, size=n_mal)).astype(float),
        "is_packed": (rm.random(n_mal) < p["malicious_packed_rate"]).astype(int),
        "packer_entropy_ratio": rm.lognormal(0.0, 0.5, size=n_mal),
        "file_type": rm.choice(p["file_types"], size=n_mal, p=_probabilities(p["malicious_file_type_mix"])),
        "label": np.ones(n_mal, dtype=int),
    }
    patterns = [None] * n_ben + ["malicious"] * n_mal
    return _interleave(rng.child("shuffle"), [benign, malicious], MALWARE_SCHEMA, patterns)


# -- phishing emails -------------------------------------------------------------


def _email_block(r: RngStream, n: int, p: dict, phishing: bool) -> dict:
    side = "phish" if phishing else "legit"
    reputation = (
        0.5 * r.beta(2.0, 5.0, size=n) if phishing else 0.5 + 0.5 * r.beta(5.0, 2.0, size=n)
    )
    return {
        "has_html": (r.random(n) < p[f"{side}_html_rate"]).astype(int),
        "num_links": r.poisson(p[f"{side}_links_mean"], size=n).astype(float),
        "num_domains": r.poisson(3.0 if phishing else 1.0, size=n).astype(float),
        "has_spf_fail": (r.random(n) < p[f"{side}_spf_fail_rate"]).astype(int),
        "is_from_internal": (r.random(n) < p[f"{side}_internal_rate"]).astype(int),
        "sender_reputation_score": reputation,
        "num_suspicious_words": r.poisson(p[f"{side}_suspicious_words_mean"], size=n).astype(float),
        "has_login_form": (r.random(n) < p[f"{side}_login_form_rate"]).astype(int),
        "hour_sent": r.integers(0, 24, size=n).astype(float),
        "attachment_type": r.choice(p["attachment_types"], size=n, p=_probabilities(p[f"{side}_attachment_mix"])),
        "label": np.full(n, 1 if phishing else 0, dtype=int),
    }


def generate_email_corpus(config: GeneratorConfig) -> Dataset:
    """Email feature table with a configured fraction of "crossed" rows per class.

    Crossing corrupts surface indicators only (SPF failure, login form, link
    volume, suspicious words): a crossed legitimate email looks suspicious and
    a crossed phishing email looks clean on those flags, while
    sender_reputation_score stays class-faithful (legit > 0.5 > phish), keeping
    the classes separable by construction at any noise level.
    """
    p = config.params("phishing")
    rng = RngStream(config.seed, "email")
    n_phish = _exact_positive_count(config.n, config.anomaly_rate)
    n_legit = config.n - n_phish

    legit = _email_block(rng.child("legit"), n_legit, p, phishing=False)
    phish = _email_block(rng.child("phish"), n_phish, p, phishing=True)

    rx = rng.child("cross")
    n_cross_legit = _exact_positive_count(n_legit, p["noise_fraction"])
    n_cross_phish = _exact_positive_count(n_phish, p["noise_fraction"])
    cross_legit = rx.choice(n_legit, size=n_cross_legit, replace=False)
    for i in cross_legit:
        legit["has_spf_fail"][i] = 1
        legit["num_suspicious_words"][i] = float(1 + rx.poisson(3.0))
        legit["num_links"][i] = float(rx.poisson(p["phish_links_mean"]))
        legit["has_login_form"][i] = int(rx.random() < 0.5)
    cross_phish = rx.choice(n_phish, size=n_cross_phish, replace=False)
    for i in cross_phish:
        phish["has_spf_fail"][i] = 0
        phish["num_suspicious_words"][i] = 0.0
        phish["num_links"][i] = float(rx.poisson(p["legit_links_mean"]))
        phish["has_login_form"][i] = 0

    patterns = [None] * n_legit + ["phishing"] * n_phish
    return _interleave(rng.child("shuffle"), [legit, phish], EMAIL_SCHEMA, patterns)


# -- user activity ----------------------------------------------------------------


def _event_capacity(users: int, days: int, events_per_day_mean: float) -> int:
    """The expected event count of users x days blocks of max(1, Poisson(mean))
    events, capped at 2**24: the size the event columns start at."""
    return min(int(users * days * (events_per_day_mean + math.exp(-events_per_day_mean))), 1 << 24)


def generate_user_activity(config: GeneratorConfig) -> Dataset:
    """Per-user event log over a fixed horizon with baseline-violating anomalies.

    Every user gets a profile (work-hour window, typical command rate); clean
    events sit inside the owner's window. Anomalies are injected per user-day
    in three patterns (off-hour access, failed-login spikes >= 5, sensitive-file
    touches) until exactly round(total * rate) events carry
    label 1. Rows are ordered by (user_id, day, hour, tiebreak counter).

    Events are drawn one user-day block at a time, each block's draws written
    straight into six preallocated event columns (sized by `_event_capacity`,
    grown by a quarter when a block overflows them); activities are codes into
    one name table that also holds the names the injections write. The emitted
    columns are then built one at a time, each event column dropped once its
    emitted column is built, so the peak stays near the returned table's size.
    """
    p = config.params("ueba")
    users, days = p["users"], p["days"]
    rng = RngStream(config.seed, "ueba")

    rp = rng.child("profiles")
    work_start = rp.integers(7, 11, size=users)
    work_len = rp.integers(8, 10, size=users)
    cmd_rate = rp.uniform(5.0, 15.0, size=users)

    n_types = len(p["activity_types"])
    names = list(p["activity_types"]) + ["login", "file_access"]
    login, file_access = names.index("login"), names.index("file_access")
    is_command, is_file, is_privilege = (
        np.array([n == k for n in names]) for k in ("command", "file_access", "privilege_use")
    )
    activity_mix = _probabilities(p["activity_mix"])

    re = rng.child("events")
    # Hours lie in [0, 23] and codes below len(names); counts keep the draws' int64.
    dtypes = (np.int8, np.min_scalar_type(len(names) - 1), np.int64, np.int64, bool, bool)
    cap = _event_capacity(users, days, p["events_per_day_mean"])
    hour, act, failed, cmds, sens, admin = (np.empty(cap, dtype) for dtype in dtypes)
    sizes = np.empty(users * days, dtype=np.int64)  # events per user-day, user-major
    n = 0
    for u in range(users):
        lo, hi = int(work_start[u]), int(work_start[u] + work_len[u] - 1)
        center, spread = (lo + hi) / 2.0, max(1.0, (hi - lo) / 3.0)
        for d in range(days):
            m = max(1, int(re.poisson(p["events_per_day_mean"])))
            if n + m > len(hour):
                cap = max(n + m, len(hour) + len(hour) // 4)
                hour, act, failed, cmds, sens, admin = (
                    np.concatenate([c[:n], np.empty(cap - n, c.dtype)]) for c in (hour, act, failed, cmds, sens, admin)
                )
            s = slice(n, n + m)
            hour[s] = np.clip(np.round(re.normal(center, spread, size=m)), lo, hi)
            act[s] = re.choice(n_types, size=m, p=activity_mix)
            acts = act[s]
            failed[s] = re.poisson(0.1, size=m)
            cmds[s] = np.where(is_command[acts], re.poisson(cmd_rate[u], size=m), re.poisson(1.0, size=m))
            sens[s] = is_file[acts] & (re.random(m) < p["sensitive_file_rate"])
            admin[s] = np.where(is_privilege[acts], re.random(m) < 0.5, re.random(m) < p["admin_action_rate"])
            sizes[u * days + d] = m
            n += m
    hour, act, failed, cmds, sens, admin = (c[:n] for c in (hour, act, failed, cmds, sens, admin))
    starts = np.cumsum(sizes) - sizes

    target = _exact_positive_count(n, config.anomaly_rate)
    ri = rng.child("inject")
    order = ri.permutation(len(sizes))
    tag = np.zeros(n, dtype=np.int8)  # 1 + pattern index on injected events

    def candidates():
        # A share of each block in `order`, drawn only once the previous
        # block's events are injected; then, since the share can under-fill
        # extreme rates, every event still clean, block by block.
        done = 0
        for b in order:
            if done >= target:
                return
            m = sizes[b]
            k = min(max(3, int(np.floor(p["anomalous_share_of_session"] * m + 0.5))), m, target - done)
            yield from starts[b] + ri.choice(m, size=k, replace=False)
            done += k
        rows = np.concatenate([np.arange(starts[b], starts[b] + sizes[b]) for b in order])
        yield from rows[tag[rows] == 0]

    for i, j in zip(range(target), candidates()):
        tag[j] = 1 + i % 3
        if i % 3 == 0:
            hour[j] = ri.integers(0, 6)
        elif i % 3 == 1:
            failed[j], act[j] = ri.integers(5, 16), login
        else:
            sens[j], act[j] = True, file_access

    # Emit ordered by (user, day, hour, original position): a stable sort
    # that only moves events within their block.
    block = np.arange(len(sizes))
    emit = np.lexsort((hour, np.repeat(block, sizes)))
    sources = {"hour": hour, "failed_login_attempts": failed, "command_count": cmds,
               "accessed_sensitive_file": sens, "is_admin_action": admin}
    del hour, failed, cmds, sens, admin
    cols = {name: sources.pop(name)[emit].astype(np.float64 if kind == "numeric" else np.int64)
            for name, kind in USER_EVENT_SCHEMA if name in sources}
    tag = tag[emit]
    cols["anomaly_label"] = (tag > 0).astype(np.int64)
    # Dataset builds the name list from this iterator over the emitted codes.
    cols["activity_type"] = map(names.__getitem__, act[emit])
    del act, emit
    cols["user_id"] = np.repeat((block // days + 1).astype(float), sizes)
    cols["day"] = day = np.repeat((block % days + 1).astype(float), sizes)
    cols["weekday"] = (day - 1) % 7
    patterns = ("off_hour", "failed_spike", "sensitive_file")
    injected = np.flatnonzero(tag)
    meta = {"injection_pattern": dict(zip(injected.tolist(), [patterns[t - 1] for t in tag[injected].tolist()]))}
    return Dataset(USER_EVENT_SCHEMA, cols, meta=meta)


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_block(values, kind: str) -> list:
    """JSON values of one column slice, spelled as `json.dumps` spells them."""
    if kind == "categorical":
        return list(map(encode_basestring_ascii, values))
    if kind != "numeric":
        return list(map(str, values.tolist()))
    cells = list(map(repr, values.tolist()))
    if not np.isfinite(values).all():
        cells = [_JSON_NONFINITE.get(cell, cell) for cell in cells]
    return cells


def save_events_jsonl(dataset: Dataset, path) -> None:
    """Write an event log as line-delimited records in row order.

    Each line is `json.dumps(record, sort_keys=True)` of the row: categorical
    cells as strings, numeric as floats, binary and label as ints. Records are
    built from one `%` template per file, a block of rows at a time.
    """
    names = sorted(dataset.column_names)
    kinds = dict(dataset.columns)
    keys = (encode_basestring_ascii(name).replace("%", "%%") for name in names)
    template = "{" + ", ".join(f"{key}: %s" for key in keys) + "}\n"
    columns = [dataset.column(name) for name in names]
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for start in range(0, dataset.n, WRITE_BLOCK):
                cells = [_json_block(col[start:start + WRITE_BLOCK], kinds[name]) for col, name in zip(columns, names)]
                fh.write("".join([template % row for row in zip(*cells)]))
    except OSError as exc:
        raise DataError(f"cannot write events to {path}: {exc}") from exc


# Each domain's generator, the defaults its overrides are checked against and
# the smallest `n` it accepts (ueba draws users x days of events, ignoring `n`).
GENERATOR_MIN_N = {"intrusion": 100, "malware": 100, "phishing": 100, "ueba": None}
GENERATOR_PARAMS = {
    "intrusion": NETWORK_DEFAULTS, "malware": MALWARE_DEFAULTS, "phishing": EMAIL_DEFAULTS, "ueba": UEBA_DEFAULTS,
}
GENERATORS = {
    "intrusion": generate_network_flows,
    "malware": generate_malware_corpus,
    "phishing": generate_email_corpus,
    "ueba": generate_user_activity,
}
