"""CO schemas: well-formedness, classification, resolution, TAKE."""

import pytest

from repro.errors import SchemaGraphError
from repro.xnf.lang.parser import parse_xnf
from repro.xnf.views import XNFViewCatalog, contains_path, resolve


def make_views():
    return XNFViewCatalog()


def resolve_text(text, views=None):
    return resolve(parse_xnf(text), views or make_views())


class TestWellFormedness:
    def test_edge_endpoints_must_be_components(self):
        with pytest.raises(SchemaGraphError) as info:
            resolve_text(
                "OUT OF a AS T, r AS (RELATE a, missing WHERE a.x = missing.y) TAKE *"
            )
        assert "component table" in str(info.value)

    def test_duplicate_component_names_rejected(self):
        with pytest.raises(SchemaGraphError):
            resolve_text("OUT OF a AS T, a AS U TAKE *")

    def test_cyclic_edge_needs_roles(self):
        with pytest.raises(SchemaGraphError) as info:
            resolve_text("OUT OF a AS T, r AS (RELATE a, a WHERE a.x = a.y) TAKE *")
        assert "role" in str(info.value)

    def test_no_root_rejected(self):
        with pytest.raises(SchemaGraphError) as info:
            resolve_text(
                "OUT OF a AS T, b AS U, "
                "r AS (RELATE a, b WHERE a.x = b.y), "
                "s AS (RELATE b, a WHERE b.y = a.x) TAKE *"
            )
        assert "root" in str(info.value)

    def test_restriction_on_unknown_node(self):
        with pytest.raises(SchemaGraphError):
            resolve_text("OUT OF a AS T WHERE nope SUCH THAT x = 1 TAKE *")

    def test_restriction_on_unknown_edge(self):
        with pytest.raises(SchemaGraphError):
            resolve_text("OUT OF a AS T WHERE r (x, y) SUCH THAT x.a = 1 TAKE *")

    def test_take_of_unknown_component(self):
        with pytest.raises(SchemaGraphError):
            resolve_text("OUT OF a AS T TAKE nothere")


class TestClassification:
    def test_roots(self):
        schema = resolve_text(
            "OUT OF a AS T, b AS U, c AS V, "
            "r AS (RELATE a, b WHERE a.x = b.y) TAKE *"
        )
        assert sorted(schema.roots()) == ["a", "c"]

    def test_recursion(self):
        schema = resolve_text(
            "OUT OF a AS T, b AS U, "
            "r AS (RELATE a, b WHERE a.x = b.y), "
            "s AS (RELATE b, b2 WHERE b.y = b2.z), "
            "b2 AS W, t AS (RELATE b2, b WHERE b2.z = b.y) TAKE *"
        )
        assert schema.is_recursive()

    def test_schema_sharing(self):
        schema = resolve_text(
            "OUT OF a AS T, b AS U, c AS V, "
            "r AS (RELATE a, c WHERE a.x = c.y), "
            "s AS (RELATE b, c WHERE b.x = c.y), "
            "q AS (RELATE a, b WHERE a.x = b.k) TAKE *"
        )
        assert schema.shared_nodes() == ["c"]

    def test_describe_mentions_flags(self, fig4_session):
        text = fig4_session.describe("OUT OF EXT-ALL-DEPS-ORG TAKE *")
        assert "recursive" in text
        assert "root" in text
        assert "membership" in text

    def test_graph_export(self):
        schema = resolve_text(
            "OUT OF a AS T, b AS U, r AS (RELATE a, b WHERE a.x = b.y) TAKE *"
        )
        assert set(schema.nodes) == {"a", "b"}
        assert [e.child_names() for e in schema.edges_from("a")] == [["b"]]
        assert schema.edges_from("b") == []
        assert not schema.is_recursive()


class TestViewResolution:
    def test_unknown_view(self):
        with pytest.raises(SchemaGraphError):
            resolve_text("OUT OF NOPE TAKE *")

    def test_view_components_inherited(self):
        views = make_views()
        views.create(
            "BASE",
            parse_xnf(
                "OUT OF a AS T, b AS U, r AS (RELATE a, b WHERE a.x = b.y) TAKE *"
            ),
        )
        schema = resolve_text(
            "OUT OF BASE, c AS V, s AS (RELATE a, c WHERE a.x = c.z) TAKE *",
            views,
        )
        assert set(schema.nodes) == {"a", "b", "c"}
        assert set(schema.edges) == {"r", "s"}

    def test_view_restrictions_compose(self):
        views = make_views()
        views.create(
            "BASE",
            parse_xnf(
                "OUT OF a AS T, b AS U, r AS (RELATE a, b WHERE a.x = b.y) "
                "WHERE a SUCH THAT x > 1 TAKE *"
            ),
        )
        schema = resolve_text(
            "OUT OF BASE WHERE a SUCH THAT x < 10 TAKE *", views
        )
        assert len(schema.nodes["a"].restrictions) == 2

    def test_view_cycle_detected(self):
        views = make_views()
        views.create("A", parse_xnf("OUT OF B TAKE *"))
        views.create("B", parse_xnf("OUT OF A TAKE *"))
        with pytest.raises(SchemaGraphError):
            resolve_text("OUT OF A TAKE *", views)

    def test_duplicate_view_rejected(self):
        views = make_views()
        views.create("A", parse_xnf("OUT OF x AS T TAKE *"))
        with pytest.raises(SchemaGraphError):
            views.create("A", parse_xnf("OUT OF x AS T TAKE *"))

    def test_drop_view(self):
        views = make_views()
        views.create("A", parse_xnf("OUT OF x AS T TAKE *"))
        views.drop("A")
        assert views.get("A") is None
        views.drop("A", if_exists=True)
        with pytest.raises(SchemaGraphError):
            views.drop("A")


class TestRestrictionClassification:
    def test_plain_predicate_is_pushable(self):
        schema = resolve_text(
            "OUT OF a AS T WHERE a SUCH THAT x > 1 TAKE *"
        )
        assert schema.nodes["a"].restrictions
        assert not schema.instance_restrictions

    def test_path_predicate_is_instance_level(self):
        schema = resolve_text(
            "OUT OF a AS T, b AS U, r AS (RELATE a, b WHERE a.x = b.y) "
            "WHERE a d SUCH THAT COUNT(d->r) > 1 TAKE *"
        )
        assert not schema.nodes["a"].restrictions
        assert len(schema.instance_restrictions) == 1

    def test_contains_path_helper(self):
        query = parse_xnf(
            "OUT OF V WHERE a d SUCH THAT COUNT(d->r) > 1 AND d.x = 2 TAKE *"
        )
        assert contains_path(query.restrictions[0].predicate)

    def test_edge_restriction_merged_into_predicate(self):
        schema = resolve_text(
            "OUT OF a AS T, b AS U, r AS (RELATE a, b WHERE a.x = b.y) "
            "WHERE r (p, c) SUCH THAT c.z > p.w TAKE *"
        )
        text = schema.edges["r"].predicate.to_sql()
        # aliases rewritten onto the edge bindings
        assert "b.z" in text and "a.w" in text


class TestTake:
    def test_projection_drops_components(self):
        schema = resolve_text(
            "OUT OF a AS T, b AS U, c AS V, "
            "r AS (RELATE a, b WHERE a.x = b.y), "
            "s AS (RELATE a, c WHERE a.x = c.y) "
            "TAKE a(*), b(*), r"
        )
        assert set(schema.nodes) == {"a", "b"}
        assert set(schema.edges) == {"r"}

    def test_edge_implicitly_discarded_with_endpoint(self):
        schema = resolve_text(
            "OUT OF a AS T, b AS U, r AS (RELATE a, b WHERE a.x = b.y) "
            "TAKE a(*), r"
        )
        assert set(schema.edges) == set()

    def test_column_projection_recorded(self):
        schema = resolve_text("OUT OF a AS T TAKE a(x, y)")
        assert schema.nodes["a"].projection == ["x", "y"]

    def test_star_columns_mean_no_projection(self):
        schema = resolve_text("OUT OF a AS T TAKE a(*)")
        assert schema.nodes["a"].projection is None
