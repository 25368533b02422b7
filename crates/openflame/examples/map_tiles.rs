//! Tile rendering and cross-frame stitching (paper §4 tile service + paper §5.2
//! MapCruncher-style alignment): renders the city, then overlays a
//! store's unaligned indoor map using a transform fitted from manual
//! correspondences, and writes PPM images.
//!
//! Run with: `cargo run --release --example map_tiles`
//! Output: `target/tiles/*.ppm`

use openflame_core::{Deployment, DeploymentConfig, SpatialProvider, TileQuery};
use openflame_geo::{Affine2, Mercator, Point2};
use openflame_tiles::stitch::{compose, render_unaligned_overlay};
use openflame_tiles::TileCoord;
use openflame_worldgen::{World, WorldConfig};
use std::fs;
use std::path::Path;

fn main() {
    let world = World::generate(WorldConfig::default());
    let dep = Deployment::build(world, DeploymentConfig::default());
    let out_dir = Path::new("target/tiles");
    fs::create_dir_all(out_dir).expect("create output directory");

    // 1. City tiles straight from the federation at three zooms.
    for z in [14u8, 15, 16] {
        let center = dep.world.config.center;
        let tile = dep.client.tile(TileQuery { center, z }).unwrap().tile;
        let path = out_dir.join(format!("city_z{z}.ppm"));
        fs::write(&path, tile.to_ppm()).expect("write tile");
        println!(
            "wrote {} ({:.1}% painted)",
            path.display(),
            tile.coverage() * 100.0
        );
    }

    // 2. Cross-frame stitching: the venue's map lives in its own
    //    rotated frame. Fit the alignment from four manual
    //    correspondences (venue corner ↔ surveyed geo position), then
    //    overlay.
    let venue_idx = 0;
    let venue = &dep.world.venues[venue_idx];
    let truth = venue.true_transform;
    let corners = [
        Point2::new(0.0, 0.0),
        Point2::new(40.0, 0.0),
        Point2::new(40.0, 25.0),
        Point2::new(0.0, 25.0),
    ];
    let correspondences: Vec<(Point2, Point2)> =
        corners.iter().map(|&c| (c, truth.apply(c))).collect();
    let fitted = Affine2::fit_similarity(&correspondences).expect("four correspondences");
    println!(
        "\nfitted venue alignment: rotation {:.1}°, scale {:.3}, rms {:.4} m",
        fitted.rotation_angle().to_degrees(),
        fitted.uniform_scale(),
        fitted.rms_error(&correspondences)
    );

    let anchor = dep.world.config.center;
    let venue_geo = dep
        .world
        .venue_point_to_geo(venue_idx, Point2::new(20.0, 12.0));
    let z = 18u8;
    let (x, y) = Mercator::tile_for(venue_geo, z);
    let coord = TileCoord { z, x, y };
    let query = TileQuery {
        center: venue_geo,
        z,
    };
    let base = dep.client.tile(query).unwrap().tile;
    let overlay = render_unaligned_overlay(&venue.map, &fitted, anchor, coord);
    let stitched = compose(&[&base, &overlay]);
    let path = out_dir.join("venue_overlay_z18.ppm");
    fs::write(&path, stitched.to_ppm()).expect("write tile");
    println!(
        "wrote {} (base {:.1}%, with indoor overlay {:.1}%)",
        path.display(),
        base.coverage() * 100.0,
        stitched.coverage() * 100.0
    );
    println!("\nOpen the .ppm files with any image viewer (or convert with ImageMagick).");
}
