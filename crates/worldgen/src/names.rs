//! Deterministic name vocabularies for streets, POIs and products.

use rand::Rng;

/// Street base names (east-west avenues).
pub(crate) const AVENUE_NAMES: &[&str] = &[
    "Forbes",
    "Fifth",
    "Penn",
    "Liberty",
    "Baum",
    "Centre",
    "Ellsworth",
    "Walnut",
    "Howe",
    "Wilkins",
    "Beacon",
    "Bartlett",
    "Hobart",
    "Solway",
    "Northumberland",
    "Phillips",
];

/// Street base names (north-south streets).
pub(crate) const STREET_NAMES: &[&str] = &[
    "Craig",
    "Neville",
    "Morewood",
    "Amberson",
    "Aiken",
    "Graham",
    "Emerson",
    "Negley",
    "Highland",
    "Shady",
    "Denniston",
    "Linden",
    "Maple",
    "Oakwood",
    "Beechwood",
    "Murdoch",
];

/// POI kinds with their OSM-style tag.
pub(crate) const POI_KINDS: &[(&str, &str, &str)] = &[
    ("amenity", "restaurant", "Restaurant"),
    ("amenity", "cafe", "Cafe"),
    ("amenity", "parking", "Parking"),
    ("amenity", "pharmacy", "Pharmacy"),
    ("amenity", "bank", "Bank"),
    ("leisure", "park", "Park"),
    ("tourism", "museum", "Museum"),
];

/// POI proper-name fragments.
pub(crate) const POI_NAMES: &[&str] = &[
    "Golden",
    "Blue Door",
    "Corner",
    "Riverside",
    "Old Town",
    "Copper Kettle",
    "Lucky",
    "Evergreen",
    "Sunrise",
    "Twin Oak",
    "Velvet",
    "Iron Bridge",
    "Harvest",
    "Juniper",
];

/// Grocery store brand names.
pub(crate) const STORE_BRANDS: &[&str] = &[
    "FreshMart",
    "GreenGrocer",
    "DailyBasket",
    "MarketPlace",
    "CornerFoods",
    "UnionShelf",
    "PantryStop",
    "HarvestHouse",
    "NorthStar Foods",
    "OakCart",
];

/// Product brands.
pub(crate) const PRODUCT_BRANDS: &[&str] = &[
    "Umami",
    "GoldenLeaf",
    "SnackJoy",
    "PureBite",
    "OceanFar",
    "HearthMill",
];

/// Product kinds.
pub(crate) const PRODUCT_KINDS: &[&str] = &[
    "seaweed",
    "ramen",
    "granola",
    "olive oil",
    "espresso beans",
    "dark chocolate",
    "kimchi",
    "oat milk",
    "green tea",
    "miso paste",
    "rice crackers",
    "peanut butter",
    "hot sauce",
    "maple syrup",
    "sourdough",
    "tofu",
    "dumplings",
    "yogurt",
    "salsa",
    "hummus",
];

/// Product flavors / variants.
pub(crate) const PRODUCT_FLAVORS: &[&str] = &[
    "wasabi",
    "teriyaki",
    "sea salt",
    "spicy",
    "smoked",
    "classic",
    "honey",
    "garlic",
    "sesame",
    "chili lime",
    "truffle",
    "matcha",
];

/// Picks a deterministic pseudo-random element.
pub fn pick<'a, R: Rng>(rng: &mut R, list: &[&'a str]) -> &'a str {
    list[rng.gen_range(0..list.len())]
}

/// Composes a product name: `"<Brand> <flavor> <kind>"`.
pub fn product_name<R: Rng>(rng: &mut R) -> (String, String, String) {
    let brand = pick(rng, PRODUCT_BRANDS).to_string();
    let flavor = pick(rng, PRODUCT_FLAVORS).to_string();
    let kind = pick(rng, PRODUCT_KINDS).to_string();
    (format!("{brand} {flavor} {kind}"), flavor, kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn product_names_composed() {
        let mut rng = StdRng::seed_from_u64(1);
        let (name, flavor, kind) = product_name(&mut rng);
        assert!(name.contains(&flavor));
        assert!(name.contains(&kind));
        assert_eq!(name.split(' ').count(), 2 + kind.split(' ').count());
    }

    #[test]
    fn pick_is_deterministic() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            assert_eq!(pick(&mut a, STREET_NAMES), pick(&mut b, STREET_NAMES));
        }
    }

    #[test]
    fn vocabularies_nonempty_and_unique() {
        for list in [AVENUE_NAMES, STREET_NAMES, STORE_BRANDS, PRODUCT_KINDS] {
            assert!(!list.is_empty());
            let mut sorted = list.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), list.len(), "duplicate entries");
        }
    }
}
