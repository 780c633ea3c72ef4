"""Enumeration, classification records, TSV serialisation and suites."""

import dataclasses

import pytest

from twosym import (
    SUITES,
    AbelianGroupSignature,
    CatalogueRecord,
    assign_orbit_ids,
    build_catalogue,
    classify_record,
    enumerate_admissible,
    enumerate_canonical,
    is_admissible,
    is_canonical,
    parse_tuple,
    records_from_tsv,
    records_to_tsv,
    run_suite,
)


def test_enumerate_admissible_small():
    got = [str(f) for f in enumerate_admissible(5)]
    assert got == [
        "(1,1,1;0,0,0)",
        "(1,1,3;0,0,2)",
        "(1,1,3;2,0,0)",
        "(1,1,3;2,0,2)",
        "(1,3,1;0,0,2)",
        "(1,3,1;0,2,0)",
        "(1,3,1;0,2,2)",
        "(3,1,1;0,2,0)",
        "(3,1,1;2,0,0)",
        "(3,1,1;2,2,0)",
    ]
    assert all(is_admissible(f) for f in enumerate_admissible(9))


def test_enumeration_is_ordered_and_complete():
    seen = list(enumerate_admissible(9))
    assert seen == sorted(seen, key=lambda f: (f.upsilon, f))
    assert len(seen) == len(set(seen))
    # canonical enumeration is the canonical slice of the admissible one
    canon = set(enumerate_canonical(9))
    assert canon == {f for f in seen if is_canonical(f) and f.h0 <= f.h1 <= f.h2}


def test_smallest_catalogue():
    got = [str(r.tuple) for r in build_catalogue(5)]
    assert got == ["(1,1,1;0,0,0)", "(1,1,3;0,0,2)", "(1,1,3;2,0,2)"]


def test_catalogue_records_up_to_seven():
    records = {str(r.tuple): r for r in build_catalogue(7)}
    assert len(records) == 11

    r = records["(1,1,5;0,0,2)"]
    assert r.trap is not None and (r.trap.r, r.trap.s) == (1, 5)
    assert r.minimal and not r.root
    assert str(r.h1) == "Z/3"
    assert any("two vanishing shifts" in w for w in r.warnings)

    # the two members of the same component are both minimal, hence no root
    assert records["(1,1,5;2,0,2)"].orbit_id == r.orbit_id
    assert records["(1,1,5;2,0,2)"].minimal
    assert not records["(1,1,5;2,0,2)"].root

    assert str(records["(1,3,3;2,2,0)"].h1) == "Z/2 + Z/2"
    assert records["(1,3,3;2,2,0)"].root


def test_orbit_ids_group_move_components():
    records = {str(r.tuple): r for r in build_catalogue(7)}
    same = {"(2,2,2;1,1,3)", "(1,3,3;0,2,2)", "(1,3,3;2,2,2)"}
    ids = {records[t].orbit_id for t in same}
    assert len(ids) == 1
    assert records["(2,2,2;1,1,1)"].orbit_id == records["(1,3,3;0,0,2)"].orbit_id
    assert records["(1,1,3;2,0,2)"].orbit_id not in ids


def test_orbit_ids_are_dense_and_first_seen():
    records = build_catalogue(7)
    ids = [r.orbit_id for r in records]
    assert ids[0] == 0
    assert set(ids) == set(range(max(ids) + 1))
    seen = []
    for i in ids:
        if i not in seen:
            seen.append(i)
    assert seen == sorted(seen)


def test_assign_orbit_ids_standalone():
    tuples = [parse_tuple(t) for t in
              ["(2,2,2;1,1,3)", "(1,3,3;2,2,2)", "(1,1,3;2,0,2)"]]
    ids = assign_orbit_ids(tuples)
    assert ids[tuples[0]] == ids[tuples[1]]
    assert ids[tuples[2]] != ids[tuples[0]]


def test_classify_record_validation():
    record = classify_record(parse_tuple("(2,2,2;1,1,3)"))
    with pytest.raises(ValueError):
        dataclasses.replace(record, upsilon=7)
    with pytest.raises(ValueError):
        dataclasses.replace(record, minimal=False)  # root without minimal
    with pytest.raises(ValueError):
        classify_record(parse_tuple("(3,1,3;2,2,2)"))  # not canonical


def test_tsv_round_trip():
    # lower-genus tuples carry a note, which must survive
    records = build_catalogue(15)
    text = records_to_tsv(records)
    assert text.splitlines()[0].startswith("tuple\tupsilon\ttrap")
    back = records_from_tsv(text)
    assert back == records
    noted = [r for r in back if r.warnings]
    assert noted
    assert all(
        r.warnings == ("two vanishing shifts: lower-genus tuple, ascent not applicable",)
        for r in noted
    )


def test_tsv_rejects_tampering():
    records = build_catalogue(5)
    text = records_to_tsv(records)
    with pytest.raises(ValueError):
        records_from_tsv(text.replace("tuple\t", "sixtuple\t"))
    # flipping a stored trap flag contradicts the recomputation
    with pytest.raises(ValueError):
        records_from_tsv(text.replace("\ttrue\t1,1\t", "\tfalse\t\t"))


def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_suite_registry():
    assert set(SUITES) == {
        "laws",
        "sigma-constructive",
        "homology-invariance",
        "minimality-agreement",
        "trap-closure",
        "genus-embedding",
        "canonical-uniqueness",
        "catalogue-smoke",
    }


def test_catalogue_smoke_suite_report():
    report = run_suite("catalogue-smoke")
    assert report.ok
    assert report.suite == "catalogue-smoke"
    assert report.checked == 3
    assert report.failures == ()
    assert "0 failures" in str(report)
