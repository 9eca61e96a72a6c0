"""``recover`` subcommand: crash-site sweep on a durable scripted workload.

For every named crash site the experiment builds a fresh durable
RC-NVM stack (WAL plus a hash index), commits part of a scripted update
workload, arms a :class:`~repro.durability.crash.CrashInjector` on the
site, kills execution there, recovers from the surviving cells + WAL,
and checks the recovered table state against a plain-Python oracle of
the committed prefix.

A final no-crash pass over the same workload reports WAL
write-amplification (WAL cells written per logical data word), the
durable-commit overhead metric of Ma et al.-style persistence studies.

Run as ``rcnvm-experiments recover`` (:mod:`repro.harness.cli`).
"""

from repro.durability import CRASH_SITES, CrashInjector, SimulatedCrash, recover
from repro.harness.figures import FigureResult
from repro.harness.systems import SMALL_CACHE_CONFIG, build_system
from repro.imdb.database import Database

N_ROWS = 48

#: The committed prefix every crash site must preserve, the statement
#: each site crashes in, and the one the recovered database then runs.
COMMITTED_SQL = "UPDATE kv SET v = 1111 WHERE id < 8"
CRASH_SQL = "UPDATE kv SET v = 2222 WHERE id >= 40"
RESUME_SQL = "UPDATE kv SET v = 3333 WHERE id = 20"


def _build(wal_rows=None):
    """A durable stack loaded with the indexed kv table."""
    db = Database(
        build_system("RC-NVM", small=True),
        cache_config=SMALL_CACHE_CONFIG,
        verify=False,
    )
    db.enable_durability(wal_rows=wal_rows)
    db.create_table("kv", [("id", 8), ("v", 8)], layout="row")
    db.insert_many("kv", [(i, i * 10) for i in range(N_ROWS)])
    db.create_index("kv", "id")
    return db


def _state_of(db):
    table = db.tables["kv"]
    return {
        row[0]: row[1]
        for row in (table.read_tuple(i) for i in range(table.n_tuples))
    }


def _crash_one_site(site, wal_rows=None):
    """Run the scripted workload, crash at ``site``, recover, verify.

    Returns a result dict for the sweep table."""
    db = _build(wal_rows=wal_rows)
    db.execute(COMMITTED_SQL)
    expected = {i: 1111 if i < 8 else i * 10 for i in range(N_ROWS)}

    db.durability.injector = CrashInjector(site)
    try:
        db.execute(CRASH_SQL)
        return {"site": site, "crashed_in": CRASH_SQL, "fired": False}
    except SimulatedCrash:
        pass

    rdb, report = recover(db)
    state_ok = _state_of(rdb) == expected

    # The recovered database must keep working durably: one more
    # committed statement, verified.
    rdb.execute(RESUME_SQL)
    expected[20] = 3333
    resumed_ok = _state_of(rdb) == expected

    return {
        "site": site,
        "crashed_in": CRASH_SQL,
        "fired": True,
        "scanned": report.records_scanned,
        "replayed": report.records_replayed,
        "discarded": report.records_discarded,
        "torn_tail": report.torn_tail,
        "state_ok": state_ok,
        "resumed_ok": resumed_ok,
    }


def _write_amplification(wal_rows=None):
    """No-crash pass: WAL cells written per logical data word."""
    db = _build(wal_rows=wal_rows)
    db.execute(COMMITTED_SQL)
    db.execute(CRASH_SQL)
    db.execute(RESUME_SQL)
    wal_words = db.durability.wal_words_written
    # Logical data words: the packed insert plus one word per committed
    # tuple-field write.
    data_words = N_ROWS * 2
    data_words += sum(1 for i in range(N_ROWS) if i < 8)
    data_words += sum(1 for i in range(N_ROWS) if i >= 40)
    data_words += 1  # RESUME_SQL touches a single tuple
    return wal_words, data_words, wal_words / data_words


def sweep_sites(wal_rows=None, sites=CRASH_SITES):
    """Crash and recover at every site, then the no-crash WAL pass: one
    :func:`_crash_one_site` dict per site plus the write amplification."""
    results = [_crash_one_site(site, wal_rows=wal_rows) for site in sites]
    wal_words, data_words, amp = _write_amplification(wal_rows=wal_rows)
    return {
        "sites": results,
        "wal_words": wal_words,
        "data_words": data_words,
        "write_amplification": amp,
    }


def figure(result):
    """The sweep as a table, one row per crash site."""
    rows = []
    for site in result["sites"]:
        if not site["fired"]:
            rows.append((site["site"], site["crashed_in"], "-", "-", "-",
                         "NO CRASH"))
            continue
        ok = site["state_ok"] and site["resumed_ok"]
        rows.append((
            site["site"], site["crashed_in"], site["scanned"],
            site["replayed"], site["discarded"],
            "ok" if ok else "STATE MISMATCH",
        ))
    return FigureResult(
        name="Recover",
        title="Kill-and-recover sweep over the durability crash sites",
        headers=("site", "crashed in", "wal records", "replayed",
                 "discarded", "recovered"),
        rows=rows,
        notes=(
            f"no-crash WAL write amplification: {result['wal_words']} WAL "
            f"cells / {result['data_words']} data words = "
            f"{result['write_amplification']:.2f}x"
        ),
    )


def check(result):
    """The ``recover --smoke`` gate: every site's crash fires, and the
    recovered state, and the state after one more statement, match the
    committed-prefix oracle."""
    problems = []
    for site in result["sites"]:
        if not site["fired"]:
            problems.append(
                f"{site['site']}: crash never fired in {site['crashed_in']}"
            )
        elif not site["state_ok"]:
            problems.append(f"{site['site']}: state mismatch after recovery")
        elif not site["resumed_ok"]:
            problems.append(f"{site['site']}: resume mismatch after recovery")
    return problems


def run_experiment(p):
    """The ``recover`` experiment; returns ``(result, table)``."""
    result = sweep_sites()
    return result, figure(result).render()
