//! The `world` dataset.
//!
//! A deterministic synthetic stand-in for MySQL's classic `world` sample
//! database (3 tables — `Country`, `City`, `CountryLanguage` — 21 attributes,
//! ~5 000 tuples), which the paper uses for the skewed and uniform query
//! workloads. The generator reproduces the schema and the categorical domains
//! the workload templates parameterize over (continents, regions, languages,
//! government forms); numeric columns are drawn deterministically from wide
//! ranges so that selection predicates have realistic selectivities.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qp_qdb::{ColumnType, Database, Relation, Schema, Value};

use crate::Scale;

/// The seven continents (domain of `Country.Continent`).
pub const CONTINENTS: [&str; 7] = [
    "Asia",
    "Europe",
    "North America",
    "Africa",
    "Oceania",
    "Antarctica",
    "South America",
];

/// Regions (domain of `Country.Region`).
pub const REGIONS: [&str; 15] = [
    "Caribbean",
    "Southern Europe",
    "Western Europe",
    "Eastern Europe",
    "Nordic Countries",
    "Middle East",
    "Southeast Asia",
    "Eastern Asia",
    "Southern Asia",
    "Central Africa",
    "Eastern Africa",
    "Western Africa",
    "South America",
    "Central America",
    "Polynesia",
];

/// Government forms (domain of `Country.GovernmentForm`).
pub const GOVERNMENT_FORMS: [&str; 10] = [
    "Republic",
    "Constitutional Monarchy",
    "Federal Republic",
    "Monarchy",
    "Federation",
    "Parliamentary Democracy",
    "Socialist Republic",
    "Commonwealth",
    "Territory",
    "Emirate",
];

/// Number of distinct languages generated (domain of
/// `CountryLanguage.Language`). Chosen so the skewed workload expands to
/// roughly the paper's 986 queries at `Scale::Quick`.
pub const NUM_LANGUAGES: usize = 110;

/// Configuration of the world-dataset generator.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Number of countries.
    pub countries: usize,
    /// Number of cities.
    pub cities: usize,
    /// Number of `CountryLanguage` rows.
    pub country_languages: usize,
    /// RNG seed.
    pub seed: u64,
}

impl WorldConfig {
    /// The configuration used at a given experiment scale.
    pub fn at_scale(scale: Scale) -> WorldConfig {
        match scale {
            Scale::Test => WorldConfig {
                countries: 60,
                cities: 120,
                country_languages: 90,
                seed: 1,
            },
            Scale::Quick => WorldConfig {
                countries: 239,
                cities: 700,
                country_languages: 500,
                seed: 1,
            },
            Scale::Full => WorldConfig {
                countries: 239,
                cities: 2500,
                country_languages: 984,
                seed: 1,
            },
        }
    }
}

/// Country code of country `i` (three uppercase letters, unique).
pub fn country_code(i: usize) -> String {
    let mut code = String::with_capacity(3);
    for k in [(i / 676) as u8 % 26, (i / 26) as u8 % 26, (i % 26) as u8] {
        code.push(char::from(b'A' + k));
    }
    code
}

/// Country name of country `i`.
pub fn country_name(i: usize) -> String {
    numbered("Country", i, 3)
}

/// Language name of language `i`.
pub fn language_name(i: usize) -> String {
    numbered("Language", i, 3)
}

fn city_name(i: usize) -> String {
    numbered("City", i, 4)
}

fn district_name(i: usize) -> String {
    numbered("District", i, 0)
}

/// `prefix` then `n` in decimal, zero-padded to `width` digits: what
/// `format!("{prefix}{n:0width$}")` gives, without the formatting
/// machinery, which otherwise dominates generation time.
fn numbered(prefix: &str, n: usize, width: usize) -> String {
    let mut digits = [0u8; 20];
    let mut len = 0;
    let mut rest = n;
    loop {
        digits[len] = b'0' + (rest % 10) as u8;
        len += 1;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    let mut name = String::with_capacity(prefix.len() + len.max(width));
    name.push_str(prefix);
    for _ in len..width {
        name.push('0');
    }
    for &d in digits[..len].iter().rev() {
        name.push(char::from(d));
    }
    name
}

/// How [`generate`] spells the names it makes; the tests swap in
/// `format!` spellings to check the database does not change.
struct Spelling {
    country_code: fn(usize) -> String,
    country_name: fn(usize) -> String,
    language_name: fn(usize) -> String,
    city_name: fn(usize) -> String,
    district_name: fn(usize) -> String,
}

/// Generates the world database.
pub fn generate(config: &WorldConfig) -> Database {
    generate_spelled(
        config,
        &Spelling {
            country_code,
            country_name,
            language_name,
            city_name,
            district_name,
        },
    )
}

fn generate_spelled(config: &WorldConfig, spell: &Spelling) -> Database {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut db = Database::new();

    // ---- Country ---------------------------------------------------------
    let country_schema = Schema::new(vec![
        ("Code", ColumnType::Str),
        ("Name", ColumnType::Str),
        ("Continent", ColumnType::Str),
        ("Region", ColumnType::Str),
        ("SurfaceArea", ColumnType::Float),
        ("Population", ColumnType::Int),
        ("LifeExpectancy", ColumnType::Float),
        ("GovernmentForm", ColumnType::Str),
        ("Capital", ColumnType::Int),
    ]);
    let mut country = Relation::new(country_schema);
    for i in 0..config.countries {
        let continent = CONTINENTS[i % CONTINENTS.len()];
        let region = REGIONS[(i * 7 + i / 3) % REGIONS.len()];
        let population: i64 = rng.gen_range(100_000..200_000_000);
        country
            .push(vec![
                (spell.country_code)(i).into(),
                (spell.country_name)(i).into(),
                continent.into(),
                region.into(),
                Value::Float(rng.gen_range(1_000.0..2_000_000.0)),
                Value::Int(population),
                Value::Float(rng.gen_range(45.0..85.0)),
                GOVERNMENT_FORMS[i % GOVERNMENT_FORMS.len()].into(),
                Value::Int((i % config.cities.max(1)) as i64),
            ])
            .expect("country tuple arity");
    }
    db.add_table("Country", country);

    // ---- City -------------------------------------------------------------
    let city_schema = Schema::new(vec![
        ("ID", ColumnType::Int),
        ("Name", ColumnType::Str),
        ("CountryCode", ColumnType::Str),
        ("District", ColumnType::Str),
        ("Population", ColumnType::Int),
    ]);
    let mut city = Relation::new(city_schema);
    for i in 0..config.cities {
        let owner = rng.gen_range(0..config.countries);
        city.push(vec![
            Value::Int(i as i64),
            (spell.city_name)(i).into(),
            (spell.country_code)(owner).into(),
            (spell.district_name)(i % 40).into(),
            Value::Int(rng.gen_range(5_000..12_000_000)),
        ])
        .expect("city tuple arity");
    }
    db.add_table("City", city);

    // ---- CountryLanguage ---------------------------------------------------
    let lang_schema = Schema::new(vec![
        ("CountryCode", ColumnType::Str),
        ("Language", ColumnType::Str),
        ("IsOfficial", ColumnType::Str),
        ("Percentage", ColumnType::Float),
    ]);
    let mut lang = Relation::new(lang_schema);
    for i in 0..config.country_languages {
        let owner = i % config.countries;
        let language = (spell.language_name)((i * 13 + owner) % NUM_LANGUAGES);
        lang.push(vec![
            (spell.country_code)(owner).into(),
            language.into(),
            if rng.gen_bool(0.3) {
                "T".into()
            } else {
                "F".into()
            },
            Value::Float(rng.gen_range(0.1..100.0)),
        ])
        .expect("language tuple arity");
    }
    db.add_table("CountryLanguage", lang);

    db
}

/// The distinct languages present in the generated database (domain used to
/// expand the skewed workload).
pub fn languages_in(db: &Database) -> Vec<String> {
    let rel = db.table("CountryLanguage").expect("CountryLanguage exists");
    let idx = rel.schema().index_of("Language").expect("Language column");
    let mut langs: Vec<String> = rel.rows().iter().map(|r| r[idx].to_string()).collect();
    langs.sort();
    langs.dedup();
    langs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_three_tables_with_requested_cardinalities() {
        let cfg = WorldConfig::at_scale(Scale::Test);
        let db = generate(&cfg);
        assert_eq!(db.num_tables(), 3);
        assert_eq!(db.table("Country").unwrap().len(), cfg.countries);
        assert_eq!(db.table("City").unwrap().len(), cfg.cities);
        assert_eq!(
            db.table("CountryLanguage").unwrap().len(),
            cfg.country_languages
        );
        // 21 attributes in total, as in the original dataset.
        let total_cols: usize = ["Country", "City", "CountryLanguage"]
            .iter()
            .map(|t| db.table(t).unwrap().schema().arity())
            .sum();
        assert_eq!(total_cols, 9 + 5 + 4);
    }

    /// The `format!` spellings the hand-written names replace.
    fn format_spelling() -> Spelling {
        Spelling {
            country_code: |i| {
                let a = (b'A' + (i / 676) as u8 % 26) as char;
                let b = (b'A' + (i / 26) as u8 % 26) as char;
                let c = (b'A' + (i % 26) as u8) as char;
                format!("{a}{b}{c}")
            },
            country_name: |i| format!("Country{i:03}"),
            language_name: |i| format!("Language{i:03}"),
            city_name: |i| format!("City{i:04}"),
            district_name: |i| format!("District{i}"),
        }
    }

    #[test]
    fn names_match_their_format_spelling() {
        let reference = format_spelling();
        for i in 0..20_000 {
            assert_eq!(country_code(i), (reference.country_code)(i));
            assert_eq!(country_name(i), (reference.country_name)(i));
            assert_eq!(language_name(i), (reference.language_name)(i));
            assert_eq!(city_name(i), (reference.city_name)(i));
            assert_eq!(district_name(i), (reference.district_name)(i));
        }
    }

    #[test]
    fn generate_matches_the_format_spelling_at_every_scale() {
        for scale in [Scale::Test, Scale::Quick, Scale::Full] {
            let cfg = WorldConfig::at_scale(scale);
            assert_eq!(generate(&cfg), generate_spelled(&cfg, &format_spelling()));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = WorldConfig::at_scale(Scale::Test);
        assert_eq!(generate(&cfg), generate(&cfg));
    }

    #[test]
    fn country_codes_are_unique() {
        let cfg = WorldConfig::at_scale(Scale::Quick);
        let mut codes: Vec<String> = (0..cfg.countries).map(country_code).collect();
        codes.sort();
        codes.dedup();
        assert_eq!(codes.len(), cfg.countries);
    }

    #[test]
    fn foreign_keys_reference_existing_countries() {
        let cfg = WorldConfig::at_scale(Scale::Test);
        let db = generate(&cfg);
        let codes: Vec<String> = (0..cfg.countries).map(country_code).collect();
        let city = db.table("City").unwrap();
        let cc = city.schema().index_of("CountryCode").unwrap();
        for row in city.rows() {
            assert!(codes.contains(&row[cc].to_string()));
        }
    }

    #[test]
    fn language_domain_is_bounded() {
        let cfg = WorldConfig::at_scale(Scale::Quick);
        let db = generate(&cfg);
        let langs = languages_in(&db);
        assert!(!langs.is_empty());
        assert!(langs.len() <= NUM_LANGUAGES);
    }
}
