"""Enumeration, classification records, TSV serialisation and suites."""

import dataclasses
import hashlib

import pytest

from twosym import (
    SUITES,
    SixTuple,
    assign_orbit_ids,
    build_catalogue,
    canonical,
    classify_record,
    enumerate_admissible,
    enumerate_canonical,
    h_orbit,
    is_admissible,
    parse_tuple,
    records_from_tsv,
    records_to_tsv,
    run_suite,
)
from twosym import catalogue
from twosym.catalogue import enumerate_candidates


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
    seen = list(enumerate_admissible(15))
    assert seen == sorted(seen, key=lambda f: (f.upsilon, f))
    assert len(seen) == len(set(seen))
    # canonical enumeration is the canonical slice of the admissible one,
    # with the orbit map as the reference rather than the filter
    canon = list(enumerate_canonical(15))
    assert canon == [f for f in seen if canonical(f) == f]


def test_admissibility_is_constant_on_relabelling_orbits(admissible_upto):
    # the canonical census tests the filter before admissibility, which
    # is sound only if every orbit is all admissible or all not; the
    # shared census holds the candidates that is_admissible accepts
    admissible = set(admissible_upto(21))
    verdict = {f: f in admissible for f in enumerate_candidates(21)}
    assert len(verdict) == 53_515
    for f, ok in verdict.items():
        for g in h_orbit(f):
            assert verdict[g] == ok, (f, g)


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


def test_catalogue_proves_each_scanned_candidate_once(admissibility_calls):
    """The census scan proves admissibility once per candidate that passes
    the representative filter; the orbit ids and the records reuse that
    proof, and classifying an admissible tuple proves it by the H1 walk."""
    assert len(build_catalogue(19)) == 1602
    assert len(admissibility_calls) == 2716
    admissibility_calls.clear()
    classify_record(parse_tuple("(2,2,2;1,1,3)"))
    assert admissibility_calls == []


@pytest.mark.parametrize(
    "suite,proofs",
    [
        ("laws", 3094 + 1953),  # the scan, then each move image's own test
        ("sigma-constructive", 1155),
        ("minimality-agreement", 715),
        ("trap-closure", 324),
    ],
)
def test_suites_prove_each_scanned_candidate_once(admissibility_calls, suite, proofs):
    """A suite's proofs are its scan's, one per candidate: the move and
    relabelling images, the surgery and the minimality and trap checks
    reuse them.  The laws suite also tests every move image for real."""
    catalogue._admissible_upto.cache_clear()
    body, bound = SUITES[suite]
    _, failures, _ = body(bound)
    assert failures == []
    assert len(admissibility_calls) == proofs


def test_laws_suite_reports_an_inadmissible_move_image(monkeypatch):
    """The laws suite tests each move image's admissibility once, and
    reports a failure instead of stopping."""
    real = catalogue.sigma
    start, image = parse_tuple("(1,3,3;2,2,2)"), SixTuple(1, 1, 1, 1, 1, 1)
    monkeypatch.setattr(
        catalogue, "sigma", lambda f: image if f == start else real(f)
    )
    checked, failures, _ = catalogue._suite_laws(7)
    assert checked == len(list(enumerate_admissible(7)))
    assert f"move image {image} of {start} is not admissible" in failures


def test_tsv_round_trip():
    # lower-genus tuples carry a note, which must survive
    records = build_catalogue(15)
    text = records_to_tsv(records)
    assert text.splitlines()[0].startswith("tuple\tupsilon\ttrap")
    # the text itself is pinned, so a change in any record shows here
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b816426ae2617529fc6a1a249ad6f6e6f6bb1c47d05883d77a63591985f2d9d1"
    )
    back = records_from_tsv(text)
    assert back == records
    noted = [r for r in back if r.warnings]
    assert noted
    assert all(
        r.warnings == ("two vanishing shifts: lower-genus tuple, ascent not applicable",)
        for r in noted
    )


@pytest.mark.parametrize(
    "bound, records, orbits, digest",
    [
        (19, 1602, 594,
         "953d291a2ce8f733f9c9a4db264be704d633bf9b2c47f60e6cac079cfbc1a836"),
        (21, 2803, 1019,
         "a45c1097c30f6b5aca85739cc62a157756e24ac96f7ee857f4f8fac0343c130c"),
    ],
)
def test_whole_catalogue_text_is_pinned(bound, records, orbits, digest):
    """Every column of the catalogue, the warnings included, is pinned
    at 19 and 21, where the move components are large."""
    got = build_catalogue(bound)
    assert len(got) == records
    assert len({r.orbit_id for r in got}) == orbits
    text = records_to_tsv(got)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_tsv_rejects_tampering():
    records = build_catalogue(5)
    text = records_to_tsv(records)
    with pytest.raises(ValueError):
        records_from_tsv(text.replace("tuple\t", "sixtuple\t"))
    # flipping a stored trap flag contradicts the recomputation
    with pytest.raises(ValueError):
        records_from_tsv(text.replace("\ttrue\t1,1\t", "\tfalse\t\t"))


def test_tsv_rejects_a_wrong_h1_cell():
    text = records_to_tsv(build_catalogue(5))
    row = "(1,1,3;2,0,2)\t5\ttrue\t1,3\ttrue\ttrue\tZ\t"
    assert row in text
    with pytest.raises(ValueError, match="h1 column disagrees"):
        records_from_tsv(text.replace(row, row.replace("\tZ\t", "\tZ/5\t")))
    # another spelling of the same group reads back as that group
    again = records_from_tsv(text.replace(row, row.replace("\tZ\t", "\tZ/0\t")))
    assert again == records_from_tsv(text)


def test_tsv_rejects_wrong_minimal_and_root_cells():
    text = records_to_tsv(build_catalogue(7))
    row = "(1,1,3;2,0,2)\t5\ttrue\t1,3\ttrue\ttrue\t"
    assert row in text
    both = row.replace("\ttrue\ttrue\t", "\tfalse\tfalse\t")
    with pytest.raises(ValueError, match="minimal column disagrees"):
        records_from_tsv(text.replace(row, both))
    root = row.replace("\ttrue\ttrue\t", "\ttrue\tfalse\t")
    with pytest.raises(ValueError, match="root column disagrees"):
        records_from_tsv(text.replace(row, root))


def test_tsv_rejects_a_wrong_warnings_cell():
    lines = records_to_tsv(build_catalogue(7)).splitlines()
    note = "two vanishing shifts: lower-genus tuple, ascent not applicable"
    noted = next(i for i, ln in enumerate(lines) if ln.endswith("\t" + note))
    plain = next(i for i, ln in enumerate(lines) if ln.endswith("\t"))
    for i, cell in ((noted, ""), (plain, "bogus note")):
        bad = list(lines)
        bad[i] = bad[i].rsplit("\t", 1)[0] + "\t" + cell
        with pytest.raises(ValueError, match="warnings column disagrees"):
            records_from_tsv("\n".join(bad) + "\n")


def test_tsv_rejects_malformed_flags():
    text = records_to_tsv(build_catalogue(5))
    row = "(1,1,3;2,0,2)\t5\ttrue\t1,3\ttrue\ttrue\t"
    assert row in text
    for bad in [
        "(1,1,3;2,0,2)\t5\tTrue\t1,3\ttrue\ttrue\t",  # trap
        "(1,1,3;2,0,2)\t5\ttrue\t1,3\tTrue\tfalse\t",  # minimal
        "(1,1,3;2,0,2)\t5\ttrue\t1,3\ttrue\tyes\t",  # root
    ]:
        with pytest.raises(ValueError, match="expected true or false"):
            records_from_tsv(text.replace(row, bad))


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
