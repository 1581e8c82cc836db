import csv
import tempfile

import pytest
from hypothesis import given, strategies as st

from transit_equity import instance_io
from transit_equity.instance_io import read_instance, write_instance
from transit_equity.model import (
    Household,
    Instance,
    Program,
    ProgramKind,
    inject_ride_hailing,
)


def test_round_trip(tmp_path, small_instance):
    write_instance(small_instance, tmp_path / "inst")
    loaded = read_instance(tmp_path / "inst")
    assert loaded.budget == small_instance.budget
    assert loaded.households == small_instance.households
    assert loaded.programs == small_instance.programs
    assert loaded.groups == small_instance.groups


def test_round_trip_with_virtuals(tmp_path, singletons):
    write_instance(singletons, tmp_path / "inst")
    loaded = read_instance(tmp_path / "inst")
    assert loaded == singletons
    assert all(p.kind is ProgramKind.VIRTUAL_RIDE_HAIL for p in loaded.programs)


def test_missing_ride_hail_cost_round_trips_as_none(tmp_path, small_instance):
    write_instance(small_instance, tmp_path / "inst")
    loaded = read_instance(tmp_path / "inst")
    assert loaded.households[3].ride_hail_cost is None


def test_header_mismatch_rejected(tmp_path, small_instance):
    write_instance(small_instance, tmp_path / "inst")
    hh = tmp_path / "inst" / "households.csv"
    text = hh.read_text().replace("ride_hail_cost", "cost")
    hh.write_text(text)
    with pytest.raises(ValueError, match="expected header"):
        read_instance(tmp_path / "inst")


def test_meta_must_have_one_row(tmp_path, small_instance):
    write_instance(small_instance, tmp_path / "inst")
    meta = tmp_path / "inst" / "meta.csv"
    meta.write_text("budget\n1.0\n2.0\n")
    with pytest.raises(ValueError, match="exactly one"):
        read_instance(tmp_path / "inst")


# Everything the CSV layer must carry through a field: its delimiter, quotes,
# spaces, line breaks and non-ASCII text ('\x00' is left out: Python 3.10's csv
# reader rejects it).
ID_CHARS = st.one_of(
    st.sampled_from([",", '"', "'", " ", "\n", "\r", "\t", "é", "中", "🚌"]),
    st.characters(blacklist_categories=("Cs",), blacklist_characters=";\x00"),
)
IDS = st.text(ID_CHARS, min_size=1, max_size=6)


@st.composite
def adversarial_instances(draw):
    household_ids = draw(st.lists(IDS, min_size=1, max_size=5, unique=True))
    group_ids = draw(st.lists(IDS, max_size=3, unique=True))
    households = tuple(
        Household(
            id=hid,
            ride_hail_cost=draw(st.none() | st.floats(0, 1e6)),
            group_ids=frozenset(draw(st.lists(st.sampled_from(group_ids)))) if group_ids else (),
        )
        for hid in household_ids
    )
    program_ids = draw(st.lists(IDS, max_size=4, unique=True))
    programs = tuple(
        Program(
            id=pid,
            cost=draw(st.floats(0, 1e6)),
            covers=frozenset(draw(st.lists(st.sampled_from(household_ids), min_size=1))),
        )
        for pid in program_ids
    )
    instance = Instance(
        households=households,
        programs=programs,
        budget=draw(st.floats(0, 1e7)),
    )
    return inject_ride_hailing(instance) if draw(st.booleans()) else instance


@given(adversarial_instances())
def test_round_trip_with_adversarial_ids(instance):
    with tempfile.TemporaryDirectory() as tmp:
        write_instance(instance, tmp)
        assert read_instance(tmp) == instance


def test_round_trip_past_the_csv_default_field_limit(tmp_path):
    # one program covering 9,000 households with 17-character ids: its covers
    # field is past the csv module's default limit of 131,072 characters
    ids = [f"household{k:08d}" for k in range(9000)]
    instance = Instance(
        households=tuple(Household(id=h, group_ids=frozenset({"g"})) for h in ids),
        programs=(Program(id="p", cost=1.0, covers=frozenset(ids)),),
        budget=1.0,
    )
    limit = csv.field_size_limit()
    write_instance(instance, tmp_path)
    assert (tmp_path / "programs.csv").stat().st_size > 131072
    assert read_instance(tmp_path) == instance
    assert csv.field_size_limit() == limit


def test_csv_errors_name_the_file(tmp_path, small_instance, monkeypatch):
    write_instance(small_instance, tmp_path)
    limit = csv.field_size_limit()
    monkeypatch.setattr(instance_io, "FIELD_SIZE_LIMIT", 4)
    with pytest.raises(ValueError, match=r"households\.csv: field larger than field limit"):
        read_instance(tmp_path)
    assert csv.field_size_limit() == limit
    monkeypatch.undo()
    (tmp_path / "meta.csv").write_bytes(b"budget\n\xff\n")
    with pytest.raises(ValueError, match=r"meta\.csv: 'utf-8' codec can't decode"):
        read_instance(tmp_path)


def test_blank_lines_skipped_and_long_rows_rejected(tmp_path, small_instance):
    write_instance(small_instance, tmp_path)
    path = tmp_path / "programs.csv"
    with path.open("a", newline="", encoding="utf-8") as fh:
        fh.write("\r\n")
    assert read_instance(tmp_path) == small_instance
    with path.open("a", newline="", encoding="utf-8") as fh:
        fh.write("p9,1.0,bus_line,a,extra\r\n")
    with pytest.raises(ValueError, match=r"programs\.csv: line 6 has 5 fields, expected 4"):
        read_instance(tmp_path)


def test_bad_budget_names_meta_csv_and_line(tmp_path, small_instance):
    write_instance(small_instance, tmp_path)
    (tmp_path / "meta.csv").write_text("budget\nnan\n")
    with pytest.raises(ValueError) as info:
        read_instance(tmp_path)
    assert str(info.value) == (
        f"{tmp_path / 'meta.csv'}: line 2: budget must be finite and >= 0, got nan"
    )


@pytest.mark.parametrize(
    "name, line, message",
    [
        ("households.csv", "b,,g1", "duplicate household id 'b'"),
        ("programs.csv", "p2,1.0,bus_line,a", "duplicate program id 'p2'"),
        ("programs.csv", "p9,1.0,bus_line,a;zz", "program p9 covers unknown households ['zz']"),
    ],
)
def test_whole_instance_errors_name_the_directory(tmp_path, small_instance, name, line, message):
    write_instance(small_instance, tmp_path)
    with (tmp_path / name).open("a", newline="", encoding="utf-8") as fh:
        fh.write(line + "\r\n")
    with pytest.raises(ValueError) as info:
        read_instance(tmp_path)
    assert str(info.value) == f"{tmp_path}: {message}"


def test_first_repeated_id_is_named():
    households = [Household(id=h) for h in ("a", "c", "b", "c", "a")]
    with pytest.raises(ValueError, match=r"^duplicate household id 'c'$"):
        Instance(households=tuple(households), programs=(), budget=1.0)
